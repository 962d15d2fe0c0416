"""The studies the benchmark runs, and the checks their outputs must pass.

A study's whole input is its config text; nothing in it is random and nothing
depends on the benchmark's seed.  The checks test properties the method must
have (schedule shape, DOF counts, time steps, finite positive errors and the
convergence rates of the acceptance criteria), never a copy of earlier output.
"""

import math
from dataclasses import dataclass

import numpy as np

CSV_COLUMNS = ("ndof", "M", "h", "tau", "sqVerr", "sqVerr1", "sqLinftyError", "sqAerr")
ERROR_COLUMNS = ("sqVerr", "sqVerr1", "sqLinftyError", "sqAerr")
OUTPUT = "study.csv"


def log_slope(x, y):
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def known_p15_rate(rows):
    """Optimal averaged rate of ACCEPT-07 on the last three rows."""
    tail = rows[-3:]
    s = log_slope([r["ndof"] for r in tail],
                  [r["sqLinftyError"] + r["sqVerr1"] for r in tail])
    ok = -1.25 <= s <= -0.75
    return ([] if ok else [f"sqLinftyError+sqVerr1 slope {s:.3f} outside [-1.25, -0.75]"],
            f"sqLinftyError+sqVerr1 slope vs ndof {s:.3f}")


def p2_temporal_rate(rows):
    """First order in tau of the unsquared max-in-time L2 error (ACCEPT-06)."""
    s = 0.5 * log_slope([r["tau"] for r in rows], [r["sqLinftyError"] for r in rows])
    ok = 0.85 <= s <= 1.15
    return ([] if ok else [f"temporal order {s:.3f} outside [0.85, 1.15]"],
            f"temporal order {s:.3f}")


def slit_p3_rate(rows):
    """Errors fall under refinement; ACCEPT-09's one-sided L-infinity bound."""
    failures = []
    for col in ("sqVerr", "sqLinftyError"):
        vals = [r[col] for r in rows]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            failures.append(f"{col} does not fall strictly: {vals}")
    s = log_slope([r["ndof"] for r in rows], [r["sqLinftyError"] for r in rows])
    if not s <= -0.65:
        failures.append(f"sqLinftyError slope {s:.3f} above -0.65")
    return failures, f"sqLinftyError slope vs ndof {s:.3f}"


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    keys: tuple             # config entries besides the schedule, in order
    levels: tuple           # schedule rows (mesh level, M)
    degree: int             # polynomial degree r of the schedule rows
    domain: str             # mesh template the study refines
    interval: tuple         # (t0, t_end) the study integrates over
    rate: object            # rows -> (failures, note) for the convergence rate
    reference: tuple = None  # (mesh level, M, degree) of a discrete reference

    @property
    def config(self):
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{k} = {v}" for k, v in self.keys]
        lines.append("levels = " + ", ".join(f"{l}:{m}" for l, m in self.levels))
        if self.reference is not None:
            lines.append("reference = " + ":".join(map(str, self.reference)))
        lines.append(f"output_path = {OUTPUT}")
        return "\n".join(lines) + "\n"

    @property
    def finest(self):
        """(level, degree) of the largest space the study builds."""
        level = max(l for l, _ in self.levels)
        if self.reference is not None and self.reference[0] >= level:
            return self.reference[0], self.reference[2]
        return level, self.degree


WORKLOADS = {w.name: w for w in (
    Workload("slit_p3", "slit_constant_force", (("p", "3.0"),),
             ((1, 8), (2, 16), (3, 32)), 1, "slit", (0.0, 4.0), slit_p3_rate,
             reference=(5, 32, 2)),
    Workload("known_p15", "known_solution", (("p", "1.5"), ("domain_variant", "omega2")),
             ((1, 4), (2, 8), (3, 16), (4, 32)), 1, "shifted_square", (-1.0, 1.0),
             known_p15_rate),
    Workload("p2_temporal", "p2_validation", (("sweep", "temporal"),),
             ((5, 4), (5, 8), (5, 16), (5, 32)), 1, "unit_square", (0.0, 1.0),
             p2_temporal_rate),
)}


def parse_csv(text):
    """Rows of a results CSV; raises ValueError on a malformed file."""
    lines = text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        if len(vals) != len(CSV_COLUMNS):
            raise ValueError(f"row with {len(vals)} fields: {line!r}")
        rows.append(dict(zip(CSV_COLUMNS, vals)))
    return rows


def parse_manifest(text):
    entries = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def mesh_ndof(domain, max_level):
    """{(level, degree): DOF count} from the mesh arrays alone.

    P1 has one DOF per vertex and P2 one more per edge; edges are the distinct
    vertex pairs of the triangles (slit cut vertices are separate vertices).
    """
    from pheat.mesh import make_initial_mesh, refine_uniform

    counts = {}
    mesh = make_initial_mesh(domain)
    for level in range(max_level + 1):
        tri = mesh.triangles
        pairs = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]),
                        axis=1)
        nv = mesh.vertices.shape[0]
        counts[(level, 1)] = nv
        counts[(level, 2)] = nv + np.unique(pairs, axis=0).shape[0]
        mesh = refine_uniform(mesh)
    return counts


def check_study(workload, csv_text, manifest_text, ndof):
    """Failures of one study's output (empty when correct), and a rate note."""
    try:
        rows = parse_csv(csv_text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"], ""
    if len(rows) != len(workload.levels):
        return [f"{len(rows)} CSV rows for {len(workload.levels)} schedule entries"], ""
    failures = []
    manifest = parse_manifest(manifest_text)
    t0, t_end = workload.interval
    if (manifest.get("t0"), manifest.get("t_end")) != (repr(t0), repr(t_end)):
        failures.append(f"manifest interval {manifest.get('t0')}..{manifest.get('t_end')}"
                        f" is not {t0}..{t_end}")
    for i, (row, (level, M)) in enumerate(zip(rows, workload.levels)):
        expected = ndof[(level, workload.degree)]
        if row["ndof"] != expected:
            failures.append(f"row {i}: ndof {row['ndof']:g}, mesh gives {expected}")
        if row["M"] != M:
            failures.append(f"row {i}: M {row['M']:g}, schedule gives {M}")
        if not math.isclose(row["tau"], (t_end - t0) / M, rel_tol=1e-14):
            failures.append(f"row {i}: tau {row['tau']!r} is not (t_end - t0)/M")
        for col in ERROR_COLUMNS:
            if not (math.isfinite(row[col]) and row[col] > 0.0):
                failures.append(f"row {i}: {col} = {row[col]!r} is not finite and > 0")
    if failures:
        return failures, ""
    return workload.rate(rows)
