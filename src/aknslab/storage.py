"""Deterministic on-disk formats: field snapshots, trajectory directories,
CSV tables, and JSON summaries.

Snapshots are raw little-endian float64 interleaved (re, im) arrays of
length 2N beside a JSON sidecar carrying {L, N, sign, time, label}.  All
scalar tables are CSV (long format); floats are written with repr so that
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import itertools
import json
import os

import numpy as np

from .flows import FlowSpec, Trajectory
from .spectral import Field, Grid

FORMAT_TAG = "aknslab-v1"


def _complex_text(re: float, im: float) -> str:
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return _complex_text(c.real, c.imag)
    return str(value)


#: Values ``fmt`` writes as numbers, which never need CSV quoting.
_NUMBERS = (int, float, complex, np.bool_, np.number)
#: Rows per block when ``write_csv`` is given rows.
_ROWS_PER_BLOCK = 1024


def _format_column(column) -> tuple[list[str] | str, bool]:
    """``fmt`` of a block's column, and whether it holds text.  A float64 or
    complex128 array is formatted from ``tolist()``, without a type test per
    value; a scalar is formatted once, for every row of the block."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return [repr(v) for v in column.tolist()], False
        if column.dtype == np.complex128:
            return [_complex_text(re, im) for re, im
                    in zip(column.real.tolist(), column.imag.tolist())], False
        return [fmt(v) for v in column], column.dtype.kind not in "biufc"
    if isinstance(column, (list, tuple)):
        return [fmt(v) for v in column], not all(isinstance(v, _NUMBERS) for v in column)
    return fmt(column), not isinstance(column, _NUMBERS)


def _row_blocks(rows, width: int):
    """``rows`` regrouped column-wise, ``_ROWS_PER_BLOCK`` rows a block."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _ROWS_PER_BLOCK)):
        for row in chunk:
            if len(row) != width:
                raise ValueError(f"CSV row has {len(row)} fields, the header {width}")
        yield list(zip(*chunk))


def write_csv(path: str, header: list[str], rows, blocks: bool = False) -> None:
    """One header line, then one line per row, each value written by ``fmt``.

    ``rows`` is any iterable of rows, a generator too.  With ``blocks``, it
    yields blocks of rows instead, given column-wise: one entry per header
    field, either an array (or list) holding the field's value in each row of
    the block, or a scalar shared by all of them.  Rows of numbers are joined
    with commas and written a block at a time; a block with text in it goes
    through ``csv.writer``, which quotes the fields that need it.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for block in (rows if blocks else _row_blocks(rows, len(header))):
            if len(block) != len(header):
                raise ValueError(f"CSV block has {len(block)} columns, the header "
                                 f"{len(header)}")
            formatted = [_format_column(column) for column in block]
            lengths = {len(c) for c, _ in formatted if isinstance(c, list)}
            if len(lengths) > 1:
                raise ValueError(f"CSV block has columns of lengths {sorted(lengths)}")
            length = lengths.pop() if lengths else 1
            columns = [c if isinstance(c, list) else itertools.repeat(c, length)
                       for c, _ in formatted]
            if any(text for _, text in formatted):
                writer.writerows(zip(*columns))
            else:
                fh.writelines([",".join(row) + "\n" for row in zip(*columns)])


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def snapshot_paths(base: str) -> tuple[str, str]:
    return base + ".f64", base + ".json"


def write_snapshot(base: str, field: Field, time: float = 0.0,
                   label: str = "") -> None:
    raw, side = snapshot_paths(base)
    inter = np.empty(2 * field.grid.points, dtype="<f8")
    inter[0::2] = field.values.real
    inter[1::2] = field.values.imag
    inter.tofile(raw)
    write_json(side, {"format": FORMAT_TAG, "L": field.grid.length,
                      "N": field.grid.points, "sign": field.sign,
                      "time": time, "label": label})


def read_snapshot(base: str) -> tuple[Field, dict]:
    raw, side = snapshot_paths(base)
    with open(side) as fh:
        meta = json.load(fh)
    inter = np.fromfile(raw, dtype="<f8")
    n = int(meta["N"])
    if inter.shape != (2 * n,):
        raise ValueError(f"snapshot {raw} has {inter.size} values, expected {2 * n}")
    values = inter[0::2] + 1j * inter[1::2]
    return Field(Grid(float(meta["L"]), n), values, int(meta["sign"])), meta


def write_trajectory(dirpath: str, traj: Trajectory,
                     conserved: dict | None = None) -> None:
    if isinstance(traj.spec.kappa, tuple):
        raise ValueError(f"cannot write the trajectory of a kappa family "
                         f"{traj.spec.kappa}: write one flow per kappa")
    os.makedirs(dirpath, exist_ok=True)
    entries = []
    for i in range(len(traj)):
        name = f"q_{i:06d}"
        write_snapshot(os.path.join(dirpath, name),
                       Field(traj.grid, traj.states[i], traj.sign),
                       traj.times[i], name)
        entry = {"index": i, "time": traj.times[i], "file": name}
        if traj.r_states is not None:
            rname = f"r_{i:06d}"
            write_snapshot(os.path.join(dirpath, rname),
                           Field(traj.grid, traj.r_states[i], traj.sign),
                           traj.times[i], rname)
            entry["r_file"] = rname
        entries.append(entry)
    write_json(os.path.join(dirpath, "manifest.json"), {
        "format": FORMAT_TAG,
        "spec": traj.spec.as_dict(),
        "grid": {"L": traj.grid.length, "N": traj.grid.points},
        "sign": traj.sign,
        "stats": traj.stats,
        "snapshots": entries,
        "conserved": conserved or {},
    })


def read_trajectory(dirpath: str) -> Trajectory:
    with open(os.path.join(dirpath, "manifest.json")) as fh:
        manifest = json.load(fh)
    spec_dict = dict(manifest["spec"])
    # manifests written while FlowSpec still had a scheme carry its name
    spec_dict.pop("scheme", None)
    spec = FlowSpec(**spec_dict)
    grid = Grid(float(manifest["grid"]["L"]), int(manifest["grid"]["N"]))
    sign = int(manifest["sign"])
    times, states, r_states = [], [], []
    has_r = any("r_file" in e for e in manifest["snapshots"])
    for entry in manifest["snapshots"]:
        f, _ = read_snapshot(os.path.join(dirpath, entry["file"]))
        times.append(float(entry["time"]))
        states.append(f.values)
        if has_r:
            rf, _ = read_snapshot(os.path.join(dirpath, entry["r_file"]))
            r_states.append(rf.values)
    return Trajectory(spec, grid, sign, times, states,
                      r_states if has_r else None, dict(manifest["stats"]))
