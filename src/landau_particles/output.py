"""CSV emission for diagnostics and snapshots, plus the run manifest.

write_csv writes every table: diagnostics, particles, slices and the CLI's
tables. Integers are written with %d and floats with shortest round-trip
formatting (Python repr), so files parse back bit-exactly and deterministic
reruns are byte-identical. repr is the floor of the cost: rows are formatted
by one format string per block, and the blob file's grid coordinates, which
are grid-axis values, are formatted once per axis value and joined per row.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord, blob_eval, blob_on_grid


def write_diagnostics(records, path):
    """One CSV row per DiagnosticsRecord, full float round-trip precision."""
    if not records:
        raise ValueError("no diagnostics records to write")
    dim = len(records[0].momentum)
    mom_cols = ",".join(f"mom_{s + 1}" for s in range(dim))
    header = (
        f"step,time,mass,{mom_cols},energy,entropy,rel_entropy,"
        "dissipation,min_dist,escaped"
    )

    def column(name, dtype=float):
        return np.array([getattr(rec, name) for rec in records], dtype=dtype)

    columns = [column("step", int)]
    columns += [column(name) for name in (
        "time", "mass", "momentum", "energy", "entropy", "relative_entropy",
        "dissipation", "min_pair_distance",
    )]
    columns.append(column("escaped_count", int))
    return write_csv(path, header, columns)


def read_diagnostics(path):
    """Parse a diagnostics CSV back into DiagnosticsRecord objects."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    dim = sum(1 for name in header if name.startswith("mom_"))
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        records.append(
            DiagnosticsRecord(
                step=int(parts[0]),
                time=float(parts[1]),
                mass=float(parts[2]),
                momentum=np.array([float(p) for p in parts[3 : 3 + dim]]),
                energy=float(parts[3 + dim]),
                entropy=float(parts[4 + dim]),
                relative_entropy=float(parts[5 + dim]),
                dissipation=float(parts[6 + dim]),
                min_pair_distance=float(parts[7 + dim]),
                escaped_count=int(parts[8 + dim]),
            )
        )
    return records


def axis_slice_points(grid, axis):
    """Grid-axis points along `axis` through the origin (other coords zero)."""
    pts = np.zeros((grid.cells_per_dim, grid.dim))
    pts[:, axis] = grid.axis
    return pts


# Rows of a CSV formatted by one call; their floats and text take a few
# hundred KB.
_CSV_ROWS = 1024


def write_csv(path, header, columns):
    """Header plus one row per entry of the column-stacked (rows,) or (rows, k)
    arrays: %d for integer columns (kept below 2^53, as they may be stacked
    with floats), %r for the others.

    Rows are formatted _CSV_ROWS at a time by one format string, so no list
    of every row's Python numbers or text is held at once.
    """
    columns = [np.asarray(c) for c in columns]
    fmts = []
    for c in columns:
        fmt = "%d" if np.issubdtype(c.dtype, np.integer) else "%r"
        fmts += [fmt] * (c.shape[1] if c.ndim == 2 else 1)
    table = np.column_stack(columns)
    line = ",".join(fmts) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, table.shape[0], _CSV_ROWS):
            rows = table[lo : lo + _CSV_ROWS]
            fh.write((line * rows.shape[0]) % tuple(rows.ravel().tolist()))
    return path


def _write_grid_csv(path, header, grid, values):
    """Header plus one row "c_1,...,c_d,value" per grid center, in the C order
    of grid.centers.

    The centers' coordinates are grid-axis values, so each is formatted once
    and the rows join those strings; the values are formatted one line of the
    last axis at a time.
    """
    axis = [repr(c) + "," for c in grid.axis.tolist()]
    heads = [""]
    for _ in range(grid.dim - 1):
        heads = [head + c for head in heads for c in axis]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for head, row in zip(heads, values.reshape(len(heads), -1)):
            fh.writelines(f"{head}{c}{x!r}\n" for c, x in zip(axis, row.tolist()))
    return path


def write_snapshot(ens, grid, mol, time, outdir, tag):
    """Particles, blob-on-grid, and per-axis origin slices as three CSV groups.

    Returns the list of file paths written. The blob is the step's density:
    inside simulate.run, the pair grid_fields built for this ensemble, not a
    second sum. Slice values are blob_eval at the slice points exactly.
    """
    outdir = str(outdir)
    dim = grid.dim
    vcols = ",".join(f"v_{s + 1}" for s in range(dim))
    paths = [
        write_csv(
            f"{outdir}/particles_{tag}.csv", f"w,{vcols}",
            [ens.weights, ens.velocities],
        ),
        _write_grid_csv(
            f"{outdir}/blob_{tag}.csv", f"{vcols},blob",
            grid, blob_on_grid(ens, grid, mol),
        ),
    ]
    for axis in range(dim):
        vals = blob_eval(ens, mol, axis_slice_points(grid, axis))
        paths.append(
            write_csv(
                f"{outdir}/slice_axis{axis + 1}_{tag}.csv", f"v_{axis + 1},blob",
                [grid.axis, vals],
            )
        )
    return paths


@dataclass
class RunManifest:
    """Reproducibility record: the resolved config plus every emitted file."""

    config_text: str
    version: str
    wall_seconds: float
    started_unix: float
    outputs: list = field(default_factory=list)

    def write(self, path):
        payload = {
            "version": self.version,
            "wall_seconds": self.wall_seconds,
            "started_unix": self.started_unix,
            "config": self.config_text,
            "outputs": sorted(str(p) for p in self.outputs),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return path
