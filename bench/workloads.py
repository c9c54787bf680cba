"""Seeded input pools and output checks for the benchmark's workloads.

Each workload turns a seed into a fixed pool of CLI operations; the
benchmark cycles through the pool in whole passes, so every per-op
ratio repeats exactly. The pool is all fisherlab ever sees: configs are
JSON text, written to files that the CLI reads.

* ``qsweep``: ``audit --out`` over a 2001-point q grid, on random d=8
  families at their optimal input. Every point shares one family, so
  the per-point measurement, metrology and audit work dominates;
  estimation is idle.
* ``simulate``: ``simulate`` of the paper qubit family with the SLD
  measurement, n=10^4 shots, 100 trials. Estimation (and the
  ``evaluate`` calls of its likelihood) does nearly all the work; the
  audit path is idle.
* ``audit-stream``: single ``audit --config`` calls, each on a fresh
  random family, cycling d in {2, 8, 32} x {sld, q_family, explicit
  random-basis effects}, plus ``golden`` once per pass. No work is
  shared between ops, so sweep batching and vectorised MLE are bypassed;
  config parsing, construction and explicit-effect validation show.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

QSWEEP_FAMILIES = 8
QSWEEP_DIM = 8
QSWEEP_GRID = tuple(float(q) for q in np.linspace(0.0, 1.0, 1801)) + tuple(
    float(q) for q in np.logspace(-12.0, -1.0, 200)
)
SWEEP_COLUMNS = [
    "sweep_param",
    "entropy_nats",
    "fisher",
    "qfi",
    "seminorm_sq",
    "rhs",
    "violated",
    "measurement_optimal",
]

SIM_OPS = 8
SIM_SHOTS = 10_000
SIM_TRIALS = 100
SIM_LAMBDA = 0.7
# Seeds of consecutive ops sit this far apart, so their trials, which
# draw from seed + i, never share a random stream.
SIM_SEED_STRIDE = 1000
# The pooled estimator spread over a pass (800 trials, ~2.5% standard
# error) must land in this band around the Cramer-Rao bound.
CRB_RATIO_BAND = (0.9, 1.2)
# The pooled mean must lie within this many standard errors (bound over
# sqrt(800)) of the truth, so a bias of a fifth of a bound fails.
MEAN_STANDARD_ERRORS = 5.0
# A single estimate this many bounds away from the truth is wrong.
ESTIMATE_SIGMAS = 10.0

STREAM_REPEATS = 4
STREAM_DIMS = (2, 8, 32)
STREAM_MEASUREMENTS = ("sld", "q_family", "explicit")
# Generated cases sit at least this far from every verdict threshold,
# so a verdict flip is the program's error, never a coin toss.
VERDICT_MARGIN = 1e-4

# The CLI prints tables with 6 significant digits.
TABLE_RTOL = 1e-5
TABLE_ATOL = 1e-9

PAPER_GENERATOR = np.diag([0.5, -0.5]).astype(complex)
PAPER_STATE = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand, config text, whether it writes ``--out``."""

    command: str
    config: str | None
    writes_out: bool
    items: int
    oracle: dict


@dataclass(frozen=True)
class Output:
    code: object
    stdout: str
    out_bytes: bytes
    out_path: str | None


@dataclass(frozen=True)
class Check:
    """Outcome of checking one op: ``failed`` names the first failed check."""

    failed: str | None
    wrong: int
    fisher_err: float


@dataclass(frozen=True)
class Workload:
    name: str
    items_label: str
    # Percentile reported as op_ms_tail; runs at the defining commit have
    # at least ten ops beyond it.
    tail_pct: float
    # Set-up probes per run, spread evenly over it. The host's speed
    # drifts over seconds and one cold import varies by tens of percent,
    # so the median needs many probes; cheap set-ups get more.
    setup_probes: int
    make_pool: Callable[[int], list]
    check_pass: Callable[[list, list], list]


def _encode(array) -> list:
    """Complex entries as the CLI's ``[re, im]`` pairs."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


def random_generator(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix, exactly Hermitian, scaled to spectral radius 1."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (raw + raw.conj().T) / 2.0
    return herm / np.max(np.abs(np.linalg.eigvalsh(herm)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random orthonormal basis, one ket per row."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, upper = np.linalg.qr(raw)
    return (unitary * (np.diag(upper) / np.abs(np.diag(upper)))).T


def _config(generator, state, lam: float, **extra) -> str:
    data = {
        "generator": _encode(generator),
        "input_state": _encode(state),
        "lambda": float(lam),
    }
    data.update(extra)
    return json.dumps(data)


def _close(value: float, want: float) -> bool:
    return abs(value - want) <= TABLE_RTOL * abs(want) + TABLE_ATOL


# --- qsweep -----------------------------------------------------------------


def qsweep_pool(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(QSWEEP_FAMILIES):
        generator = random_generator(rng, QSWEEP_DIM)
        state = oracles.optimal_input(generator)
        lam = rng.uniform(0.0, 2.0 * math.pi)
        text = _config(generator, state, lam, sweep={"param": "q", "grid": list(QSWEEP_GRID)})
        oracle = {
            "seminorm_sq": oracles.seminorm_sq(generator),
            "qfi": oracles.qfi(generator, state),
        }
        ops.append(Op("audit", text, True, len(QSWEEP_GRID), oracle))
    return ops


def _qsweep_rows(out: Output):
    """Parse a sweep CSV; return (rows, None) or (None, reason)."""
    rows = list(csv.reader(io.StringIO(out.out_bytes.decode())))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return None, "CSV header"
    body = rows[1:]
    if len(body) != len(QSWEEP_GRID) or any(len(row) != len(SWEEP_COLUMNS) for row in body):
        return None, "CSV shape"
    try:
        values = np.array([[float(x) for x in row[:6]] for row in body])
    except ValueError:
        return None, "CSV number"
    flags = [row[6:] for row in body]
    if any(flag not in ("true", "false") for pair in flags for flag in pair):
        return None, "CSV boolean"
    return (values, np.array(flags) == "true"), None


def _check_qsweep(op: Op, out: Output) -> Check:
    if out.code != 0:
        return Check(f"exit code {out.code!r}", 0, math.nan)
    parsed, reason = _qsweep_rows(out)
    if parsed is None:
        return Check(reason, 0, math.nan)
    values, flags = parsed
    violated, optimal = flags[:, 0], flags[:, 1]
    expect_stdout = (
        f"wrote {len(QSWEEP_GRID)} rows to {out.out_path} "
        f"({int(violated.sum())} violated, sweep over q)\n"
    )
    if out.stdout != expect_stdout:
        return Check("stdout summary", 0, math.nan)
    grid = np.array(QSWEEP_GRID)
    entropy = np.array([oracles.binary_entropy(q) for q in QSWEEP_GRID])
    h2, fisher_q = op.oracle["seminorm_sq"], op.oracle["qfi"]
    if not np.array_equal(values[:, 0], grid):
        return Check("sweep_param column", 0, math.nan)
    if np.max(np.abs(values[:, 1] - entropy)) > 1e-9:
        return Check("entropy off the closed form", 0, math.nan)
    if np.max(np.abs(values[:, 3] - fisher_q)) > 1e-9 * h2:
        return Check("qfi column", 0, math.nan)
    if np.max(np.abs(values[:, 4] - h2)) > 1e-9 * h2:
        return Check("seminorm_sq column", 0, math.nan)
    if np.max(np.abs(values[:, 5] - oracles.LN2)) > 1e-9:
        return Check("rhs column", 0, math.nan)
    # At the optimal input F_Q = ||h||^2, every q-family member is an
    # optimal measurement, and rhs = ln 2.
    want_violated = entropy < oracles.LN2 - oracles.TOL_AUDIT
    wrong = int(np.sum((violated != want_violated) | ~optimal))
    return Check(None, wrong, float(np.max(np.abs(values[:, 2] - h2))))


def qsweep_check(pool: list, outputs: list) -> list:
    return [_check_qsweep(op, out) for op, out in zip(pool, outputs)]


# --- simulate ---------------------------------------------------------------


def simulate_pool(seed: int) -> list:
    base = int(np.random.default_rng(seed).integers(0, 10**9))
    fisher_q = oracles.qfi(PAPER_GENERATOR, PAPER_STATE)
    ops = []
    for k in range(SIM_OPS):
        sim_seed = base + SIM_SEED_STRIDE * k
        sim = {"n": SIM_SHOTS, "trials": SIM_TRIALS, "seed": sim_seed}
        text = _config(PAPER_GENERATOR, PAPER_STATE, SIM_LAMBDA, measurement="sld", sim=sim)
        # The SLD basis is optimal, so F = F_Q in the bound.
        oracle = {"seed": sim_seed, "fisher": fisher_q, "crb": oracles.crb(SIM_SHOTS, fisher_q)}
        ops.append(Op("simulate", text, True, SIM_TRIALS, oracle))
    return ops


def _table(stdout: str, labels) -> list | None:
    """Values of ``label = value`` lines, in order, or None if the layout differs."""
    lines = stdout.splitlines()
    if len(lines) < len(labels):
        return None
    values = []
    for line, label in zip(lines, labels):
        key, sep, rest = line.partition("=")
        if not sep or key.strip() != label or not rest.split():
            return None
        try:
            values.append(float(rest.split()[0]))
        except ValueError:
            return None
    return values


def _simulate_estimates(op: Op, out: Output):
    """Per-trial estimates from a simulate op; return (estimates, None) or (None, reason)."""
    if out.code != 0:
        return None, f"exit code {out.code!r}"
    printed = _table(out.stdout, ("empirical_std", "crb", "ratio", "trials"))
    if printed is None or out.stdout.splitlines()[4:] != [
        f"wrote per-trial estimates to {out.out_path}"
    ]:
        return None, "stdout layout"
    lines = out.out_bytes.decode().splitlines()
    head = f"# true_lambda={SIM_LAMBDA:.17g} n={SIM_SHOTS} trials={SIM_TRIALS} seed={op.oracle['seed']} "
    if len(lines) != SIM_TRIALS + 3 or not lines[0].startswith(head) or lines[1] != "trial,estimate":
        return None, "CSV layout"
    try:
        rows = [line.split(",") for line in lines[2:]]
        if [row[0] for row in rows] != [str(i) for i in range(SIM_TRIALS)] + ["summary"]:
            return None, "CSV trial column"
        estimates = np.array([float(row[1]) for row in rows[:-1]])
        summary = float(rows[-1][1])
    except (IndexError, ValueError):
        return None, "CSV number"
    std, crb, ratio, trials = printed
    want_std = float(np.std(estimates, ddof=1))
    if abs(summary - want_std) > 1e-12 * want_std or not _close(std, want_std):
        return None, "empirical_std"
    if not _close(crb, op.oracle["crb"]):
        return None, "crb off 1/sqrt(n F_Q)"
    if not _close(ratio, want_std / op.oracle["crb"]) or trials != SIM_TRIALS:
        return None, "ratio or trials"
    return (estimates, crb), None


def simulate_check(pool: list, outputs: list) -> list:
    parsed = [_simulate_estimates(op, out) for op, out in zip(pool, outputs)]
    good = [p[0][0] for p in parsed if p[0] is not None]
    crb = pool[0].oracle["crb"]
    # The band is checked on the pass's pooled estimates, not per op: one
    # op's 100 trials pin its spread to only ~7%.
    pooled = np.concatenate(good) if good else np.full(2, math.nan)
    pooled_ratio = float(np.std(pooled, ddof=1)) / crb
    bias = abs(float(np.mean(pooled)) - SIM_LAMBDA) / (crb / math.sqrt(pooled.size))
    pooled_ok = CRB_RATIO_BAND[0] <= pooled_ratio <= CRB_RATIO_BAND[1] and bias <= MEAN_STANDARD_ERRORS
    checks = []
    for op, (result, reason) in zip(pool, parsed):
        if result is None:
            checks.append(Check(reason, 0, math.nan))
            continue
        estimates, printed_crb = result
        far = np.abs(estimates - SIM_LAMBDA) > ESTIMATE_SIGMAS * crb
        wrong = op.items if not pooled_ok else int(far.sum())
        fisher = 1.0 / (SIM_SHOTS * printed_crb**2)
        checks.append(Check(None, wrong, abs(fisher - op.oracle["fisher"])))
    return checks


# --- audit-stream -----------------------------------------------------------


def _stream_case(rng: np.random.Generator, dim: int, kind: str):
    """One random audit with its oracle, redrawn until every verdict has margin."""
    while True:
        generator = random_generator(rng, dim)
        state = random_state(rng, dim)
        lam = rng.uniform(0.0, 2.0 * math.pi)
        fisher_q = oracles.qfi(generator, state)
        h2 = oracles.seminorm_sq(generator)
        if kind == "sld":
            measurement, entropy, fisher = "sld", oracles.LN2, fisher_q
        elif kind == "q_family":
            q = float(rng.uniform(0.05, 0.95))
            measurement, entropy, fisher = f"q_family:q={q!r}", oracles.binary_entropy(q), fisher_q
        else:
            kets = random_basis(rng, dim)
            probs, fisher = oracles.amplitude_fisher(kets, *oracles.evolve(generator, state, lam))
            entropy = oracles.entropy(probs)
            measurement = [_encode(np.outer(ket, ket.conj())) for ket in kets]
        rhs = oracles.rhs(fisher_q, h2)
        if abs(entropy - (rhs - oracles.TOL_AUDIT)) < VERDICT_MARGIN:
            continue
        if kind == "explicit" and abs(fisher - fisher_q) < VERDICT_MARGIN:
            continue
        violated, optimal = oracles.verdicts(entropy, fisher, fisher_q, h2)
        oracle = {
            "entropy": entropy,
            "fisher": fisher,
            "qfi": fisher_q,
            "seminorm_sq": h2,
            "rhs": rhs,
            "violated": violated,
            "optimal": optimal,
        }
        return _config(generator, state, lam, measurement=measurement), oracle


def golden_oracle() -> dict:
    """The paper qubit family measured along phi = lambda = 0.7."""
    lam = 0.7
    phase = complex(math.cos(lam), math.sin(lam))
    kets = np.array([[1.0, phase], [1.0, -phase]]) / math.sqrt(2.0)
    probs, fisher = oracles.amplitude_fisher(kets, *oracles.evolve(PAPER_GENERATOR, PAPER_STATE, lam))
    fisher_q = oracles.qfi(PAPER_GENERATOR, PAPER_STATE)
    h2 = oracles.seminorm_sq(PAPER_GENERATOR)
    entropy = oracles.entropy(probs)
    violated, optimal = oracles.verdicts(entropy, fisher, fisher_q, h2)
    return {
        "entropy": entropy,
        "fisher": fisher,
        "qfi": fisher_q,
        "seminorm_sq": h2,
        "rhs": oracles.rhs(fisher_q, h2),
        "violated": violated,
        "optimal": optimal,
    }


def audit_stream_pool(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(STREAM_REPEATS):
        for dim in STREAM_DIMS:
            for kind in STREAM_MEASUREMENTS:
                text, oracle = _stream_case(rng, dim, kind)
                ops.append(Op("audit", text, False, 1, oracle))
    ops.append(Op("golden", None, False, 1, golden_oracle()))
    return ops


_AUDIT_LABELS = ("entropy S", "fisher F", "qfi F_Q", "||h||^2", "rhs")
_AUDIT_KEYS = ("entropy", "fisher", "qfi", "seminorm_sq", "rhs")


def _check_audit(op: Op, out: Output) -> Check:
    if out.code != 0:
        return Check(f"exit code {out.code!r}", 0, math.nan)
    lines = out.stdout.splitlines()
    printed = _table(out.stdout, _AUDIT_LABELS)
    if printed is None or len(lines) != 7 or not lines[5].startswith("measurement_optimal = "):
        return Check("stdout layout", 0, math.nan)
    for key, value in zip(_AUDIT_KEYS, printed):
        if not _close(value, op.oracle[key]):
            return Check(f"{key} off the oracle", 0, math.nan)
    optimal = lines[5].split("= ")[1]
    violated = lines[6].split(":")[0]
    if optimal not in ("true", "false") or violated not in ("VIOLATED", "OK"):
        return Check("verdict layout", 0, math.nan)
    wrong = (optimal == "true") != op.oracle["optimal"] or (
        violated == "VIOLATED"
    ) != op.oracle["violated"]
    return Check(None, int(wrong), abs(printed[1] - op.oracle["fisher"]))


_GOLDEN_KEYS = {
    "qfi": "qfi",
    "seminorm_sq": "seminorm_sq",
    "fisher at phi=lambda": "fisher",
    "entropy": "entropy",
    "rhs": "rhs",
}


def _check_golden(op: Op, out: Output) -> Check:
    if out.code not in (0, 1):
        return Check(f"exit code {out.code!r}", 0, math.nan)
    lines = out.stdout.splitlines()
    if len(lines) != 6 or not all(line.startswith("PASS ") for line in lines[:5]):
        return Check("golden check failed", 0, math.nan)
    printed = {}
    for line in lines[:5]:
        name, _, value = line[len("PASS "):].rpartition(": ")
        printed[name] = float(value)
    if set(printed) != set(_GOLDEN_KEYS):
        return Check("golden layout", 0, math.nan)
    for name, key in _GOLDEN_KEYS.items():
        if not _close(printed[name], op.oracle[key]):
            return Check(f"golden {name} off the oracle", 0, math.nan)
    says_violated = lines[5] == "PASS violated: true"
    wrong = says_violated != op.oracle["violated"] or (out.code == 0) != says_violated
    return Check(None, int(wrong), abs(printed["fisher at phi=lambda"] - op.oracle["fisher"]))


def audit_stream_check(pool: list, outputs: list) -> list:
    return [
        (_check_golden if op.command == "golden" else _check_audit)(op, out)
        for op, out in zip(pool, outputs)
    ]


WORKLOADS = {
    "qsweep": Workload("qsweep", "sweep points", 75.0, 9, qsweep_pool, qsweep_check),
    "simulate": Workload("simulate", "trials", 75.0, 9, simulate_pool, simulate_check),
    "audit-stream": Workload("audit-stream", "audits", 99.0, 25, audit_stream_pool, audit_stream_check),
}
