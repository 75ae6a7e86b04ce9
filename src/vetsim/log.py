"""The trajectory log: its column layout, the CSV writer and reader, and the
one constructor of a log from its row table (_log_from_table), which run()
and the reader share: it reads the events off the columns with _event_flags."""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from typing import NoReturn

import numpy as np

from .config import ConfigError, ScenarioConfig, planner_waypoints


def _csv(kind: type, *columns: str):
    """A CSV-backed TrajectoryLog field: its kind and its CSV column names.
    float fields are float64 arrays and bool fields bool arrays, both kept as
    columns of one float row table (the flags as 0.0/1.0); str fields are
    lists with one label per tick."""
    return field(metadata={"kind": kind, "columns": columns})


@dataclass
class TrajectoryLog:
    """Complete tick-by-tick record of one run: the trajectory.csv columns,
    each field declaring its own with _csv (the schema _LOG_LAYOUT reads off),
    and u_total_u and u_total_s. _log_from_table builds every log, for run()
    and log_from_csv alike.

    Per tick: t is (n,), poses (n, 6) and (n, 3), commands (n, 6) for the
    underwater and (n, 3) for the surface robot, xi_* and proj_dist (n,), all
    float64, the CSV-backed ones views of disjoint columns of one row table;
    detected_* are (n,) bool; region_* and event_flags hold n labels. events
    and the waypoint counts are read off event_flags.
    """

    config: ScenarioConfig
    t: np.ndarray = _csv(float, "t")
    pose_u: np.ndarray = _csv(float, "xU", "yU", "zU", "phiU", "thetaU", "psiU")
    pose_s: np.ndarray = _csv(float, "xS", "yS", "psiS")
    u_sub_u: np.ndarray = _csv(float, "uU_sub_x", "uU_sub_y", "uU_sub_z",
                               "uU_sub_phi", "uU_sub_theta", "uU_sub_psi")
    u_xi_u: np.ndarray = _csv(float, "uU_xi_x", "uU_xi_y", "uU_xi_z",
                              "uU_xi_phi", "uU_xi_theta", "uU_xi_psi")
    u_sub_s: np.ndarray = _csv(float, "uS_sub_x", "uS_sub_y", "uS_sub_psi")
    u_xi_s: np.ndarray = _csv(float, "uS_xi_x", "uS_xi_y", "uS_xi_psi")
    detected_us: np.ndarray = _csv(bool, "detectedUS")
    detected_su: np.ndarray = _csv(bool, "detectedSU")
    region_us: list = _csv(str, "regionUS")
    region_su: list = _csv(str, "regionSU")
    xi_us: np.ndarray = _csv(float, "xiUS")
    xi_su: np.ndarray = _csv(float, "xiSU")
    proj_dist: np.ndarray = _csv(float, "projDist")
    event_flags: list = _csv(str, "eventFlags")
    u_total_u: np.ndarray
    u_total_s: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def events(self) -> list:
        """(t, event) pairs in log order."""
        return [(t, item) for t, flags in zip(self.t.tolist(), self.event_flags) if flags
                for item in flags.split(";")]

    @property
    def waypoints_total(self) -> int:
        return len(planner_waypoints(self.config.planner))

    @property
    def waypoints_captured(self) -> int:
        return sum(flags.split(";").count("waypoint_capture") for flags in self.event_flags
                   if flags)

    def csv_chunks(self) -> Iterator[str]:
        """Render the fixed-schema CSV piece by piece: the header line, then each
        _CSV_CHUNK of rows as one string; identical runs give identical bytes. A
        float or flag column bit-identical over a chunk (so -0 and nan print as they
        do cell by cell) is printed once, into the chunk's row template."""
        yield ",".join(CSV_COLUMNS) + "\n"
        for lo in range(0, len(self.t), _CSV_CHUNK):
            rows = slice(lo, lo + _CSV_CHUNK)
            cells, columns = [], []
            for name, kind, i, _ in _CSV_CELLS:
                column = getattr(self, name)[rows]
                if kind is not str:
                    column = column if column.ndim == 1 else column[:, i]
                    bits = column.view(f"u{column.itemsize}")
                    if (bits == bits[0]).all():
                        cells.append((_CSV_FORMATS[kind] % column[0].item()).replace("%", "%%"))
                        continue
                    column = column.tolist()
                cells.append(_CSV_FORMATS[kind])
                columns.append(column)
            template = ",".join(cells) + "\n"
            yield "".join([template % row for row in zip(*columns)])


# The log layout: each CSV-backed TrajectoryLog field with its kind and its
# CSV column names, in CSV order, as the fields declare them.
_LOG_LAYOUT = tuple((f.name, f.metadata["kind"], f.metadata["columns"])
                    for f in fields(TrajectoryLog) if f.metadata)
_CSV_FORMATS = {float: "%.12g", bool: "%d", str: "%s"}

CSV_COLUMNS = tuple(name for *_, names in _LOG_LAYOUT for name in names)
# Rows are converted this many at a time, which bounds the per-cell Python
# objects the writer builds and the line strings the reader holds.
_CSV_CHUNK = 256
# The row table's columns in order, (field, index in the field): the CSV's float
# and flag columns, then three for _event_flags that the CSV holds only as tokens:
# the planner's index after the tick's step and whether the wall clamp made each
# robot's pose. run() writes them; the reader rebuilds them from eventFlags.
_LOOP_COLUMNS = ("waypoint_index", "wall_clamp_u", "wall_clamp_s")
_TABLE_CELLS = [(name, i) for name, kind, names in _LOG_LAYOUT if kind is not str
                for i in range(len(names))] + [(name, 0) for name in _LOOP_COLUMNS]
_ROW_WIDTH = len(_TABLE_CELLS)
# Row-table columns ahead of the xi offsets, which are NaN by design on
# undetected ticks: time, poses, commands and detection flags.
_FINITE_WIDTH = _TABLE_CELLS.index(("xi_us", 0))
# The CSV's columns in order, (field, kind, index in the field, row-table column
# or None), and its rows as loadtxt reads them: float cells as float64, others text.
_CSV_CELLS = [(name, kind, i, None if kind is str else _TABLE_CELLS.index((name, i)))
              for name, kind, names in _LOG_LAYOUT for i in range(len(names))]
_CSV_DTYPE = np.dtype([(column, float if kind is float else object)
                       for column, (_, kind, _, _) in zip(CSV_COLUMNS, _CSV_CELLS)])


def _log_arrays(table: np.ndarray) -> dict:
    """Slice the (ticks, _ROW_WIDTH) row table into the CSV-backed TrajectoryLog
    arrays: float64 views of disjoint columns (no copies), bool copies."""
    out = {}
    for name, kind, names in _LOG_LAYOUT:
        if kind is not str:
            col = _TABLE_CELLS.index((name, 0))
            block = table[:, col] if len(names) == 1 else table[:, col:col + len(names)]
            out[name] = block if kind is float else block.astype(kind)
    return out


def _log_from_table(config: ScenarioConfig, table: np.ndarray, regions: dict) -> TrajectoryLog:
    """The log of a (ticks, _ROW_WIDTH) row table with its _LOOP_COLUMNS filled and
    of its region_us and region_su label lists: the arrays _log_arrays slices; the
    events _event_flags reads off them, the loop columns and config's windows at
    the tick times; and u_total_u and u_total_s, each robot's logged split
    u_sub + u_xi clipped to its axis_bounds, bit for bit the clipped sum that
    VehicleModel.step scales by the gain when run() gives it that split."""
    arrays = _log_arrays(table)
    index, *clamps = table[:, -len(_LOOP_COLUMNS):].T
    loop = dict(zip(_LOOP_COLUMNS, (index.astype(int), *(c == 1.0 for c in clamps))))
    totals = {f"u_total_{r}": np.clip(arrays[f"u_sub_{r}"] + arrays[f"u_xi_{r}"], -np.array(b), b)
              for r, b in (("u", config.params_u.axis_bounds), ("s", config.params_s.axis_bounds))}
    flags = _event_flags(arrays | loop, regions, *_window_masks(config, arrays["t"]))
    return TrajectoryLog(config=config, **arrays, **regions, event_flags=flags, **totals)


def _first_non_finite(table: np.ndarray) -> tuple | None:
    """(row, column) of the row table's first NaN or infinity, row-major, in the
    columns run() and log_from_csv both hold finite; None if there is none."""
    finite = np.isfinite(table[:, :_FINITE_WIDTH])
    return None if finite.all() else divmod(int(finite.argmin()), _FINITE_WIDTH)


def _runs(mask: np.ndarray) -> tuple:
    """(starts, stops) of the runs of a per-tick bool flag: run i is
    mask[starts[i]:stops[i]]."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
    return edges[0::2], edges[1::2]


def _transitions(mask: np.ndarray, on: str, off: str = "", at_start: bool = True) -> list:
    """(tick, event) pairs: event on where a run of a per-tick flag starts, at
    tick 0 only if at_start, and, if named, event off where one stops before
    the end."""
    starts, stops = _runs(mask)
    rises = [(k, on) for k in starts.tolist() if k or at_start]
    falls = [(k, off) for k in stops.tolist() if k < len(mask)] if off else []
    return rises + falls


# The labels a region column can hold, each keyed by its text, so that a log
# read back holds the very label strings run() logged.
_REGIONS = {label: label for label in ("safe", "elastic", "danger", "none")}


def _window_masks(config: ScenarioConfig, ts: np.ndarray) -> tuple:
    """Per-tick masks at the tick times ts, _event_flags' scheduled and perturbed:
    a scheduled dropout window covers the tick, a disturbance is active; for
    run() and log_from_csv alike."""
    perturbed = np.zeros(len(ts), dtype=bool)
    for d in config.perturbations:
        perturbed |= d.active(ts)
    return config.dropout.scheduled(ts), perturbed


def _event_flags(arrays: dict, regions: dict, scheduled: np.ndarray,
                 perturbed: np.ndarray) -> list:
    """The eventFlags text of every tick, read off the transitions of arrays
    (detection flags and _LOOP_COLUMNS), of the region labels and of the
    scheduled-dropout and perturbation masks, each tick's events in the order
    below. Starts and waypoint captures can fire on tick 0; line-of-sight and
    region changes cannot, as no tick precedes it."""
    det_us, det_su = arrays["detected_us"], arrays["detected_su"]
    passed = np.diff(arrays["waypoint_index"], prepend=0)  # waypoints captured per tick
    found = [
        *_transitions(arrays["wall_clamp_u"], "wall_clamp_u"),
        *_transitions(arrays["wall_clamp_s"], "wall_clamp_s"),
        *_transitions(scheduled, "dropout_start", "dropout_end"),
        *_transitions(perturbed, "perturb_start", "perturb_end"),
        *((k, "waypoint_capture") for k in np.repeat(np.arange(len(passed)), passed).tolist()),
        *_transitions(det_us, "los_regain_us", "los_loss_us", at_start=False),
        *_transitions(det_su, "los_regain_su", "los_loss_su", at_start=False),
    ]
    for pair in ("us", "su"):
        r = regions[f"region_{pair}"]
        found += [(k, f"region_{pair}:{r[k - 1]}-{r[k]}")
                  for k in itertools.compress(itertools.count(1), map(operator.ne, r, r[1:]))]
    flags = [""] * len(passed)
    for k, event in sorted(found, key=lambda item: item[0]):  # stable: keeps the order
        flags[k] = f"{flags[k]};{event}" if flags[k] else event
    return flags


def log_from_csv(lines: Iterable[str], config: ScenarioConfig) -> TrajectoryLog:
    """Rebuild a log from its CSV rendering plus the echoed config: every field
    as run() built it, the floats to the 12 printed digits. lines is an open
    text file or any iterable of its lines, each ending in "\n" but perhaps the
    last; it is read one _CSV_CHUNK of lines at a time, into a row table sized
    by config. A header-only file yields an empty log, which the plots render
    as bare axes. Blank lines are skipped, whatever their line ending, and the
    header may end in "\r\n"; a chunk is searched for blank lines only when its
    least line sorts below "\x0e", as every blank line does. A row of the wrong
    length, a flag not 0 or 1 or a cell loadtxt does not read as a number is a
    ConfigError naming its row, and a time, pose or command that is NaN or
    infinite, which run() never writes, one naming its row and column; so is a
    row count or a time that config's duration and dt could not give, or
    columns that disagree (_check_columns). A file longer than config's row
    count is read at most one chunk past its end.
    """
    stripped = operator.methodcaller("rstrip", "\r\n")  # "" for a blank line, which is skipped
    lines = iter(lines)
    if next(filter(stripped, lines), "").rstrip("\r\n").split(",") != list(CSV_COLUMNS):
        raise ConfigError("trajectory CSV header does not match the schema")
    # run() writes config.steps + 1 rows; once a chunk ends past them, no more is read
    n = config.steps + 1
    table = np.zeros((n + _CSV_CHUNK, _ROW_WIDTH))
    labels = {name: [] for name, kind, _ in _LOG_LAYOUT if kind is str}
    hi = 0
    while hi <= n and (chunk := list(itertools.islice(lines, _CSV_CHUNK))):
        # a blank line is "" or starts with "\r" or "\n", all below "\x0e"
        if min(chunk) < "\x0e" and not (chunk := list(filter(stripped, chunk))):
            continue
        lo, hi = hi, hi + len(chunk)
        try:
            block = np.loadtxt(chunk, delimiter=",", dtype=_CSV_DTYPE, comments=None, ndmin=1)
        except ValueError:  # a row of the wrong length or a float cell that is not a number
            _rescan(chunk, lo)
        for column, (name, kind, _, slot) in zip(CSV_COLUMNS, _CSV_CELLS):
            if kind is str:
                cells = block[column].tolist()
                # a known region becomes run()'s own label; _check_columns refuses the rest
                labels[name] += cells if name == "event_flags" else map(_REGIONS.get, cells, cells)
            elif kind is float or {"0", "1"}.issuperset(block[column]):
                table[lo:hi, slot] = block[column] == "1" if kind is bool else block[column]
            else:
                _rescan(chunk, lo)  # a flag is neither 0 nor 1
    if (bad := _first_non_finite(table[:hi])) is not None:
        k, c = bad  # these columns lead both the table and the CSV, in one order
        raise ConfigError(f"row {k + 1} column {CSV_COLUMNS[c]} is not finite: {table[bad]:g}")
    # row k is at t = k * dt (to 12 digits)
    ts = np.arange(hi) * config.dt
    if (off := np.flatnonzero(np.abs(table[:hi, 0] - ts) > 1e-11 * ts)).size:
        k = int(off[0])
        raise ConfigError(f"row {k + 1} column t is {table[k, 0]:.12g}, not {k} * dt = {ts[k]:.12g}")
    table[:hi, 0] = ts  # run()'s own clock, not its 12 printed digits
    if hi not in (0, n):
        raise ConfigError(f"row {min(hi, n) + 1} is {'missing' if hi < n else 'past the end'}: "
                          f"duration {config.duration:g} s at dt {config.dt:g} s makes {n} rows")
    # the _LOOP_COLUMNS the tokens give: the running waypoint_capture count,
    # which like run()'s stops at the planner's last waypoint, and clamp flags
    # set exactly on their wall_clamp_* rows
    flags = labels.pop("event_flags")
    rows = list(itertools.compress(range(hi), flags))  # only non-empty cells are split
    tokens = ("waypoint_capture", *_LOOP_COLUMNS[1:])
    found = [[cell.count(token) for token in tokens]
             for cell in (flags[k].split(";") for k in rows)]
    counts = np.zeros((hi, len(tokens)), dtype=int)
    counts[rows] = np.reshape(found, (-1, len(tokens)))  # shape (0, 3) on a log with no event
    index = counts[:, 0].cumsum().clip(max=len(planner_waypoints(config.planner)))
    table[:hi, -len(_LOOP_COLUMNS):] = np.column_stack((index, counts[:, 1:] > 0))
    log = _log_from_table(config, table[:hi], labels)
    _check_columns(log, flags)
    return log


def _check_columns(log: TrajectoryLog, flags: list) -> None:
    """A ConfigError naming the first row and column run() could not write: a
    region not in _REGIONS; a region "none" or an xi NaN but exactly where its
    detection flag is 0; a projDist off the distance of the row's poses by more
    than their 12-digit rounding carries; last, a CSV eventFlags text in flags
    other than log.event_flags, derived from the loop columns its tokens give. A
    lone spurious or missing waypoint_capture or wall_clamp_* token is thus
    self-consistent, unless it is a capture past the last waypoint: only a
    re-run of the config can catch it."""
    for pair in ("us", "su"):
        tag, regions, xi = pair.upper(), getattr(log, f"region_{pair}"), getattr(log, f"xi_{pair}")
        seen = getattr(log, f"detected_{pair}")
        if unknown := set(regions) - _REGIONS.keys():
            k = next(k for k, label in enumerate(regions) if label in unknown)
            raise ConfigError(f"row {k + 1} column region{tag} is not a region: {regions[k]!r}")
        for column, values, unseen in (
            (f"region{tag}", regions, np.array(regions, dtype=object) == "none"),
            (f"xi{tag}", xi, np.isnan(xi)),
        ):
            if (wrong := unseen == seen).any():
                k = int(wrong.argmax())
                raise ConfigError(f"row {k + 1} column {column} is {values[k]} where "
                                  f"detected{tag} is {seen[k]:d}: only undetected rows are "
                                  "none and NaN")
    (xu, yu, *_), (xs, ys, _), dist = log.pose_u.T, log.pose_s.T, log.proj_dist
    between, rounding = np.hypot(xu - xs, yu - ys), abs(xu) + abs(yu) + abs(xs) + abs(ys)
    if (off := np.flatnonzero(~(abs(between - dist) <= 1e-11 * (rounding + abs(dist))))).size:
        k = int(off[0])
        raise ConfigError(f"row {k + 1} column projDist is {dist[k]:.12g}, not the "
                          f"{between[k]:.12g} m between the row's poses")
    if (derived := log.event_flags) != flags:
        k = next(k for k, (got, want) in enumerate(zip(flags, derived)) if got != want)
        raise ConfigError(f"row {k + 1} column eventFlags is {flags[k]!r}, not the "
                          f"{derived[k]!r} the log and its config give")


def _rescan(rows: list, lo: int) -> NoReturn:
    """Raise a ConfigError naming the first of rows (lo + 1 is the first) that, read
    alone, has the wrong length, a flag not 0 or 1 or a float cell loadtxt rejects."""
    for k, row in enumerate(rows, lo + 1):
        cells = row.rstrip("\n").split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ConfigError(f"row {k} has {len(cells)} fields")
        for c, (column, (_, kind, _, _)) in enumerate(zip(CSV_COLUMNS, _CSV_CELLS)):
            if kind is bool and cells[c] not in ("0", "1"):
                raise ConfigError(f"row {k} column {column} is not 0 or 1: {cells[c]!r}")
            if kind is float:
                try:
                    np.loadtxt([row], delimiter=",", usecols=c, comments=None)
                except ValueError:
                    raise ConfigError(f"row {k} is not numeric: column {column} "
                                      f"is {cells[c]!r}") from None
    raise ConfigError(f"rows {lo + 1} to {lo + len(rows)} do not parse")
