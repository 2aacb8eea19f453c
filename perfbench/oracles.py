"""Correctness oracles for the four CLI commands.

Each oracle checks one command's report (and CSV) against closed forms of
the study families and against the expected verdicts, never against
output the program produced earlier. It returns a list of problems; an
empty list means the command passed.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from workloads import Command, spiral_margin

#: samples whose closed-form margin is within this of zero are not judged
CLEAR_MARGIN = 1e-6
#: squared distances below this count as the zero minimum of a crossing
NEAR_ZERO = 1e-10
#: tolerance on endpoint images and on CSV margins against the closed form
VALUE_TOL = 1e-9

EXPECTED_AGGREGATE = {"vertical": "almost_semidefinite", "plane-normal": "semidefinite"}


def check(cmd: Command, files: dict[str, bytes], stdout: str) -> list[str]:
    try:
        report = json.loads(files["json"])
        return _CHECKS[cmd.kind](cmd, report, files, stdout.strip())
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _grid_params(cmd: Command) -> np.ndarray:
    a, b = cmd.axes()
    return np.column_stack([np.repeat(a, b.size), np.tile(b, a.size)])


def _read_csv(data: bytes, header: list[str]) -> np.ndarray:
    text = data.decode("utf-8")
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise ValueError(f"CSV header {first!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def _check_classify(cmd, report, files, stdout):
    cls = report["results"]["classification"]
    samples = cls["samples"]
    errors = []
    if stdout != f"aggregate: {cls['aggregate']}":
        errors.append(f"stdout {stdout!r} does not name the aggregate")
    params = np.array([s["params"] for s in samples], dtype=float)
    if params.shape != (cmd.samples, 2) or not np.allclose(params, _grid_params(cmd), rtol=0, atol=1e-12):
        return errors + ["sample parameters are not the row-major grid"]
    if cmd.family in EXPECTED_AGGREGATE:
        if cls["aggregate"] != EXPECTED_AGGREGATE[cmd.family]:
            errors.append(f"aggregate {cls['aggregate']}, expected {EXPECTED_AGGREGATE[cmd.family]}")
        if not report["results"]["field_residual"] < 1e-6:
            errors.append(f"geodesic-field residual {report['results']['field_residual']}")
        return errors
    margin = spiral_margin(cmd.lam, cmd.alpha0, params[:, 0], params[:, 1])
    definite = np.array([s["verdict"] == "definite" for s in samples])
    positive, negative = margin > CLEAR_MARGIN, margin < -CLEAR_MARGIN
    if np.any(positive & ~definite):
        errors.append(f"{int(np.sum(positive & ~definite))} samples with positive margin not definite")
    if np.any(negative & definite):
        errors.append(f"{int(np.sum(negative & definite))} samples with negative margin definite")
    if np.all(positive) and cls["aggregate"] != "definite":
        errors.append(f"aggregate {cls['aggregate']} on a chart with positive margin")
    if np.any(negative) and cls["aggregate"] == "definite":
        errors.append("aggregate definite on a chart with negative margin")
    return errors


def _endpoint_images(cmd: Command, a: np.ndarray, b: np.ndarray, sign: int) -> np.ndarray:
    """Closed-form sphere coordinates of the forward (+1) or backward (-1) endpoints."""
    if cmd.family == "vertical":
        # foot (1 + s/2, a, b, s/2) on the horosphere; every leaf ends at the pole
        s = a * a + b * b
        if sign == 1:
            return np.column_stack([np.zeros_like(a), np.zeros_like(a), np.ones_like(a)])
        return np.column_stack([2.0 * a, 2.0 * b, s - 1.0]) / (1.0 + s)[:, None]
    if cmd.family == "plane-normal":
        rho = np.hypot(a, b)
        scale = np.where(rho > 0.0, np.tanh(rho) / np.where(rho > 0.0, rho, 1.0), 1.0)
        return np.column_stack([scale * a, scale * b, sign / np.cosh(rho)])
    alpha = cmd.alpha0 + cmd.lam * (b - a)
    x = np.sinh(a) * np.cos(b) - sign * np.cos(alpha) * np.sin(b)
    y = np.sinh(a) * np.sin(b) + sign * np.cos(alpha) * np.cos(b)
    z = sign * np.sin(alpha)
    return np.column_stack([x, y, z]) / np.cosh(a)[:, None]


GAUSS_HEADER = ["a", "b", "fwd_x", "fwd_y", "fwd_z", "fwd_rank", "bwd_x", "bwd_y", "bwd_z", "bwd_rank"]


def _check_gauss(cmd, report, files, stdout):
    n = cmd.samples
    fwd_rank = 0 if cmd.family == "vertical" else 2
    res = report["results"]
    errors = []
    if stdout != f"rows: {n}":
        errors.append(f"stdout {stdout!r}")
    if res["forward_rank_counts"] != {str(fwd_rank): n}:
        errors.append(f"forward ranks {res['forward_rank_counts']}, expected all {fwd_rank}")
    if res["backward_rank_counts"] != {"2": n}:
        errors.append(f"backward ranks {res['backward_rank_counts']}, expected all 2")
    rows = _read_csv(files["csv"], GAUSS_HEADER)
    if rows.shape != (n, len(GAUSS_HEADER)) or not np.allclose(rows[:, :2], _grid_params(cmd), rtol=0, atol=1e-12):
        return errors + [f"CSV rows do not cover the {cmd.grid} grid"]
    if np.any(rows[:, 5] != fwd_rank) or np.any(rows[:, 9] != 2):
        errors.append("CSV ranks disagree with the expected ranks")
    for sign, cols in ((1, slice(2, 5)), (-1, slice(6, 9))):
        err = float(np.max(np.abs(rows[:, cols] - _endpoint_images(cmd, rows[:, 0], rows[:, 1], sign))))
        if not err <= VALUE_TOL:
            errors.append(f"{'forward' if sign == 1 else 'backward'} endpoint images off by {err:.1e}")
    return errors


def _check_critical(cmd, report, files, stdout):
    res = report["results"]
    minima = res["minima"]
    errors = []
    if stdout != f"minima: {len(minima)}" or res["count"] != len(minima):
        errors.append(f"stdout {stdout!r} and count {res['count']} disagree with the minima list")
    zeros = [m["params"] for m in minima if m["value"] < NEAR_ZERO]
    if cmd.family == "prop":
        # both leaves through the base point must be found
        for t in (0.0, 2.0 * math.pi):
            if not any(math.hypot(p[0] - cmd.base_r, p[1] - t) < 1e-3 for p in zeros):
                errors.append(f"no zero minimum at (r, t) = ({cmd.base_r}, {t:.4f})")
    else:
        # plane-normal from the origin: the squared distance is the squared
        # foot radius, one zero minimum at the centre, rising ring by ring
        if len(minima) != 1 or len(zeros) != 1 or max(abs(x) for x in zeros[0]) > 1e-4:
            errors.append(f"expected one zero minimum at the centre, got {minima}")
        rings = res["ring_min_values"]
        if any(b <= a for a, b in zip(rings, rings[1:])):
            errors.append("ring minima are not increasing")
    return errors


def _check_scan_lambda(cmd, report, files, stdout):
    lam = report["results"]["scan"]["lambda_max"]
    errors = []
    if stdout != f"lambda_max: {lam!r}":
        errors.append(f"stdout {stdout!r}")
    r, t = cmd.axes()
    if not spiral_margin(lam, cmd.alpha0, r[:, None], t[None, :]).min() > 0.0:
        errors.append(f"margin is not positive on the grid at lambda_max {lam!r}")
    if spiral_margin(lam * (1.0 + 1e-9), cmd.alpha0, r[:, None], t[None, :]).min() > 0.0:
        errors.append(f"margin is still positive just above lambda_max {lam!r}")
    rows = _read_csv(files["csv"], ["r", "t", "h_value"])
    if rows.shape != (cmd.samples, 3) or not np.allclose(rows[:, :2], _grid_params(cmd), rtol=0, atol=1e-12):
        return errors + [f"CSV rows do not cover the {cmd.grid} grid"]
    err = float(np.max(np.abs(rows[:, 2] - spiral_margin(lam, cmd.alpha0, rows[:, 0], rows[:, 1]))))
    if not err <= VALUE_TOL:
        errors.append(f"CSV margins off the closed form by {err:.1e}")
    return errors


_CHECKS = {
    "classify": _check_classify,
    "gauss": _check_gauss,
    "critical": _check_critical,
    "scan-lambda": _check_scan_lambda,
}
