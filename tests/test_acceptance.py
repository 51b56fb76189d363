"""End-to-end acceptance gate for the steady-state correlation model.

Each test is one release criterion.  It prints a single ``[ACnn]``
PASS/FAIL verdict line outside pytest's capture, so every run shows the
verdict for all ten criteria, then fails the criteria that do not hold.
The verdict line always carries the measured numbers, so a FAIL documents
the behaviour actually observed rather than just the mismatch.

The criteria mix hard numerical guarantees (solver residuals, state
physicality, determinism, throughput) with qualitative claims about how
the mirror-mirror and mirror-cavity correlations respond to detuning,
amplifier pumping, mirror frequency ratio, and temperature.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from lgsteer import (
    PRESET_NAMES,
    CovarianceMatrix,
    SteeringClass,
    build_model,
    integrate_covariance,
    log_negativity,
    lyapunov_oracle,
    lyapunov_residual,
    preset_variants,
    run_sweep,
    serialize_csv,
    steady_covariance,
    steering,
    symplectic_eigenvalues,
)
from lgsteer.validation import _random_stable_systems
from conftest import params_at

TWO_PI = 2.0 * math.pi

ONE_WAY = (
    SteeringClass.ONE_WAY_ALPHA_TO_BETA,
    SteeringClass.ONE_WAY_BETA_TO_ALPHA,
)

# pump-phase study variants of the base detuning sweep, with their phases
THETA_TAGS = (
    ("chi0p1_theta0", 0.0),
    ("chi0p1_thetapi2", 0.5 * math.pi),
    ("chi0p1_thetapi", math.pi),
    ("chi0p1_theta3pi2", 1.5 * math.pi),
)


class _Census:
    """Every preset sweep, run once and shared by all criteria."""

    def __init__(self) -> None:
        self.unique = {}
        self.by_name = {}
        for name in PRESET_NAMES:
            for tag, spec in preset_variants(name):
                if spec not in self.unique:
                    self.unique[spec] = run_sweep(spec)
                self.by_name[(name, tag)] = self.unique[spec]


@pytest.fixture(scope="module")
def census() -> _Census:
    return _Census()


def _stable_rows(result):
    return [r for r in result.rows if r.error is None and r.report.stable]


def _x(row) -> float:
    return float(row.coords[0][1])


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} - {detail}")
    if not ok:
        pytest.fail(f"{label}: {detail}")


def _circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _tmsv(r: float) -> CovarianceMatrix:
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    v = 0.5 * np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    return CovarianceMatrix(v, ("alpha", "beta"))


def test_ac01_lyapunov_correctness(capsys):
    """Residual bound on the base detuning grid; three independent
    steady-state routes agree on 200 seeded random systems; < 30 s."""
    t0 = time.perf_counter()
    spec = preset_variants("fig2a")[0][1]
    n_stable = 0
    worst_ratio, worst_at = 0.0, math.nan
    for value in spec.axis1.values:
        model = build_model(params_at(spec.base, ((spec.axis1.name, value),)))
        _margin, cm = steady_covariance(model.drift, model.diffusion)
        if cm is None:
            continue
        n_stable += 1
        resid = lyapunov_residual(model.drift, model.diffusion, cm)
        ratio = resid / (1e-8 * float(np.max(np.abs(model.diffusion))))
        if ratio > worst_ratio:
            worst_ratio, worst_at = ratio, value
    rng = np.random.default_rng(12345)
    worst_dev = 0.0
    for a, d in zip(*_random_stable_systems(rng, 200)):
        v_direct = steady_covariance(a, d)[1].data
        v_oracle = lyapunov_oracle(a, d).data
        v_ode = integrate_covariance(a, d, None, t_end=100.0, dt=0.02).data
        worst_dev = max(
            worst_dev,
            float(np.max(np.abs(v_direct - v_oracle))),
            float(np.max(np.abs(v_direct - v_ode))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and worst_dev <= 1e-6 and elapsed < 30.0
    _verdict(
        capsys,
        "AC01",
        ok,
        f"worst residual/(1e-8*Dmax) {worst_ratio:.3f} at detuning_ratio="
        f"{worst_at:g} over {n_stable} stable grid points; three-route max "
        f"deviation {worst_dev:.2e} on 200 seeded systems (tol 1e-6); "
        f"{elapsed:.1f} s (budget 30 s)",
    )


def test_ac02_physicality(census, capsys):
    """Every stable steady state across every preset is a physical
    Gaussian state: all symplectic eigenvalues >= 1/2 - 1e-9."""
    checked = 0
    worst, worst_at = math.inf, ""
    for spec, result in census.unique.items():
        for row in _stable_rows(result):
            model = build_model(params_at(spec.base, row.coords))
            _margin, cm = steady_covariance(model.drift, model.diffusion)
            assert cm is not None, "stable census row must re-solve"
            nu = min(symplectic_eigenvalues(cm))
            checked += 1
            if nu < worst:
                worst = nu
                worst_at = ", ".join(f"{n}={v:g}" for n, v in row.coords)
    ok = worst >= 0.5 - 1e-9
    _verdict(
        capsys,
        "AC02",
        ok,
        f"min symplectic eigenvalue {worst:.12f} (bound 0.5 - 1e-9) over "
        f"{checked} stable steady states; minimum at {worst_at}",
    )


def test_ac03_detuning_response(census, capsys):
    """Unpumped detuning sweep: mirror-mirror entanglement should peak
    within 0.2 of detuning_ratio -1 and vanish for positive detuning;
    mirror-1/cavity entanglement should peak within 0.2 of +1."""
    rows = _stable_rows(census.by_name[("fig2a", "chi0")])
    d = [_x(r) for r in rows]
    en_mm = [r.report.en_mm for r in rows]
    en_m1c = [r.report.en_m1c for r in rows]
    k_mm = max(range(len(rows)), key=lambda i: en_mm[i])
    k_mc = max(range(len(rows)), key=lambda i: en_m1c[i])
    mm_pos = max((v for x, v in zip(d, en_mm) if x > 0), default=0.0)
    ok = (
        -1.2 <= d[k_mm] <= -0.8
        and mm_pos <= 1e-10
        and 0.8 <= d[k_mc] <= 1.2
    )
    extra = (
        f"; note ENmm is zero at every one of the {len(rows)} stable points"
        if en_mm[k_mm] == 0.0
        else ""
    )
    _verdict(
        capsys,
        "AC03",
        ok,
        f"ENmm max {en_mm[k_mm]:g} at detuning_ratio={d[k_mm]:g} (want in "
        f"[-1.2, -0.8]); ENmm for positive detuning <= {mm_pos:g} (want ~0); "
        f"ENm1c max {en_m1c[k_mc]:g} at detuning_ratio={d[k_mc]:g} "
        f"(want in [0.8, 1.2]){extra}",
    )


def test_ac04_amplifier_enhancement(census, capsys):
    """Pumping at gain ratio 0.1 should maximize mirror-mirror
    entanglement near phase 3pi/2 and beat the unpumped maximum by >= 5%."""
    base = max(
        r.report.en_mm for r in _stable_rows(census.by_name[("fig2a", "chi0")])
    )
    per_theta = []
    for tag, theta in THETA_TAGS:
        rows = _stable_rows(census.by_name[("fig2a", tag)])
        per_theta.append((theta, max((r.report.en_mm for r in rows), default=0.0)))
    theta_star, best = max(per_theta, key=lambda t: t[1])
    ok = (
        _circular_distance(theta_star, 1.5 * math.pi) <= 0.25 * math.pi
        and best > base
        and best >= 1.05 * base
    )
    extra = (
        "; no enhancement exists: ENmm is zero at every stable point, "
        "pumped or not, so the phase maximizer is a four-way tie"
        if best == 0.0 and base == 0.0
        else ""
    )
    _verdict(
        capsys,
        "AC04",
        ok,
        f"pumped max ENmm {best:g} at phase {theta_star:.4g} (want within "
        f"pi/4 of 3pi/2 and >= 1.05x unpumped max {base:g}){extra}",
    )


def test_ac05_tripartite_contangle(census, capsys):
    """Three-way entanglement: positive residual contangle on a positive-
    detuning interval unpumped; pumping should maximize it at phase pi/2
    with >= 10% gain over unpumped."""
    rows = _stable_rows(census.by_name[("fig2a", "chi0")])
    good = [r for r in rows if _x(r) > 0 and r.report.r_min > 0]
    interval = False
    for a, b in zip(good, good[1:]):
        if b.index[0] == a.index[0] + 1:
            interval = True
            break
    span = (
        f"[{_x(good[0]):g}, {_x(good[-1]):g}]" if good else "(empty)"
    )
    base = max(r.report.r_min for r in rows)
    per_theta = []
    for tag, theta in THETA_TAGS:
        pumped = _stable_rows(census.by_name[("fig2a", tag)])
        per_theta.append((theta, max((r.report.r_min for r in pumped), default=0.0)))
    theta_star, best = max(per_theta, key=lambda t: t[1])
    ratios = ", ".join(f"{t:.3g}: {v / base:.3f}x" for t, v in per_theta)
    ok = (
        interval
        and theta_star == 0.5 * math.pi
        and best > base
        and best >= 1.10 * base
    )
    extra = (
        ": pumping reduces Rmin at every phase"
        if all(v < base for _, v in per_theta)
        else ""
    )
    _verdict(
        capsys,
        "AC05",
        ok,
        f"Rmin > 0 on detuning_ratio {span} with adjacent-point interval="
        f"{interval}, unpumped peak {base:g}; pumped maximizer phase "
        f"{theta_star:.4g} (want pi/2) at {best:g}, want >= 1.10x unpumped; "
        f"per-phase ratios {{{ratios}}}{extra}",
    )


def test_ac06_steering_hierarchy(census, capsys):
    """Steering implies mirror-mirror entanglement at every grid point of
    every preset; two-mode squeezed analytic values to 1e-10."""
    total, steer_pts, viol = 0, 0, 0
    for result in census.unique.values():
        for row in _stable_rows(result):
            total += 1
            rep = row.report
            if max(rep.zeta_m1_m2, rep.zeta_m2_m1) > 1e-10:
                steer_pts += 1
                if not rep.en_mm > 1e-10:
                    viol += 1
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 2.0):
        cm = _tmsv(r)
        target = math.log(math.cosh(2.0 * r))
        worst = max(
            worst,
            abs(log_negativity(cm) - 2.0 * r),
            abs(steering(cm, "alpha") - target),
            abs(steering(cm, "beta") - target),
        )
    vacuous = " (vacuously: no steering anywhere)" if steer_pts == 0 else ""
    ok = viol == 0 and worst <= 1e-10
    _verdict(
        capsys,
        "AC06",
        ok,
        f"{viol} hierarchy violations over {total} stable points, "
        f"{steer_pts} with steering{vacuous}; two-mode squeezed analytic "
        f"worst error {worst:.2e} (tol 1e-10)",
    )


def test_ac07_steering_directionality(census, capsys):
    """Mirror frequency ratio 0.5/1.5: two-way and one-way regions exist
    and the higher-frequency mirror dominates at the two-way peak; ratios
    0.9/1.1 give one-way only; 0.95/1.05 give no steering at all."""
    problems, details = [], []
    for name, hi_dir in (("fig6a", "zeta_m1_m2"), ("fig6b", "zeta_m2_m1")):
        rows = _stable_rows(census.by_name[(name, "")])
        tw = [r for r in rows if r.report.steering_class is SteeringClass.TWO_WAY]
        ow = [r for r in rows if r.report.steering_class in ONE_WAY]
        details.append(f"{name} {len(tw)}TW/{len(ow)}OW of {len(rows)}")
        if not tw:
            problems.append(f"{name}: no two-way region")
        if not ow:
            problems.append(f"{name}: no one-way region")
        if tw:
            peak = max(
                tw, key=lambda r: r.report.zeta_m1_m2 + r.report.zeta_m2_m1
            )
            hi = getattr(peak.report, hi_dir)
            lo = (
                peak.report.zeta_m2_m1
                if hi_dir == "zeta_m1_m2"
                else peak.report.zeta_m1_m2
            )
            if not hi > lo:
                problems.append(
                    f"{name}: higher-frequency mirror does not dominate "
                    f"at the two-way peak ({hi:g} vs {lo:g})"
                )
    for name in ("fig7a", "fig7d"):
        rows = _stable_rows(census.by_name[(name, "")])
        tw = sum(1 for r in rows if r.report.steering_class is SteeringClass.TWO_WAY)
        ow = sum(1 for r in rows if r.report.steering_class in ONE_WAY)
        details.append(f"{name} {tw}TW/{ow}OW of {len(rows)}")
        if ow == 0:
            problems.append(f"{name}: no one-way region")
        if tw:
            problems.append(f"{name}: unexpected two-way region")
    for name in ("fig7b", "fig7c"):
        rows = _stable_rows(census.by_name[(name, "")])
        other = sum(
            1 for r in rows if r.report.steering_class is not SteeringClass.NO_WAY
        )
        details.append(f"{name} {other} steering of {len(rows)}")
        if other:
            problems.append(f"{name}: steering present, expected none")
    ok = not problems
    _verdict(
        capsys,
        "AC07",
        ok,
        "; ".join(details)
        + ("" if ok else " | " + "; ".join(problems)),
    )


def test_ac08_steering_transitions(census, capsys):
    """Against pump gain at phase pi/2: the slow-second-mirror panel
    should switch two-way -> one-way in gain ratio [0.08, 0.18]; the
    fast-second-mirror panel should lose one-way in [0.10, 0.20]."""
    problems, details = [], []

    rows = _stable_rows(census.by_name[("fig8b", "")])
    seq = [(_x(r), r.report.steering_class) for r in rows]
    trans = None
    for (x0, c0), (x1, c1) in zip(seq, seq[1:]):
        if c0 is SteeringClass.TWO_WAY and c1 in ONE_WAY:
            trans = x1
            break
    n_tw = sum(1 for _, c in seq if c is SteeringClass.TWO_WAY)
    n_ow = sum(1 for _, c in seq if c in ONE_WAY)
    details.append(f"fig8b {n_tw}TW/{n_ow}OW of {len(seq)}")
    if trans is None:
        problems.append("fig8b: no two-way -> one-way transition on the gain grid")
    elif not 0.08 <= trans <= 0.18:
        problems.append(
            f"fig8b: transition at gain ratio {trans:g}, outside [0.08, 0.18]"
        )

    rows = _stable_rows(census.by_name[("fig8f", "")])
    axis = census.by_name[("fig8f", "")].spec.axis1.values
    ow_x = [_x(r) for r in rows if r.report.steering_class in ONE_WAY]
    details.append(f"fig8f {len(ow_x)}OW of {len(rows)}")
    if not ow_x:
        problems.append("fig8f: no one-way region on the gain grid")
    else:
        last = max(ow_x)
        after = [x for x in axis if x > last]
        if not after:
            problems.append("fig8f: one-way persists to the top of the gain grid")
        else:
            vanish = min(after)
            if not 0.10 <= vanish <= 0.20:
                problems.append(
                    f"fig8f: one-way vanishes at gain ratio {vanish:g}, "
                    f"outside [0.10, 0.20]"
                )
    ok = not problems
    _verdict(
        capsys,
        "AC08",
        ok,
        "; ".join(details) + ("" if ok else " | " + "; ".join(problems)),
    )


def test_ac09_temperature_decay(census, capsys):
    """Mirror-mirror entanglement never increases with temperature
    (slack 1e-9) and is gone at a finite temperature on both
    temperature-sweep variants."""
    problems, details = [], []
    for tag in ("chi0", "chi0p1_theta3pi2"):
        rows = _stable_rows(census.by_name[("fig4", tag)])
        ts = [_x(r) for r in rows]
        es = [r.report.en_mm for r in rows]
        rises = sum(1 for a, b in zip(es, es[1:]) if b > a + 1e-9)
        if rises:
            problems.append(f"fig4/{tag}: ENmm rises at {rises} steps")
        if not es or es[-1] > 1e-12:
            problems.append(
                f"fig4/{tag}: ENmm {es[-1] if es else 'n/a'} at the top "
                f"temperature, expected 0"
            )
        note = " (identically zero)" if es and max(es) == 0.0 else ""
        details.append(
            f"fig4/{tag}: {len(es)} stable T in [{min(ts):g}, {max(ts):g}] K, "
            f"max ENmm {max(es):g}{note}, {rises} rises, final {es[-1]:g}"
        )
    ok = not problems
    _verdict(
        capsys,
        "AC09",
        ok,
        "; ".join(details) + ("" if ok else " | " + "; ".join(problems)),
    )


def test_ac10_determinism_throughput(capsys):
    """The base detuning sweep is bit-reproducible and fast: two
    single-threaded runs give byte-identical CSV, each under 5 s."""
    spec = preset_variants("fig2a")[0][1]
    t0 = time.perf_counter()
    first = serialize_csv(run_sweep(spec))
    e1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = serialize_csv(run_sweep(spec))
    e2 = time.perf_counter() - t0
    same = first == second
    ok = same and max(e1, e2) < 5.0
    _verdict(
        capsys,
        "AC10",
        ok,
        f"byte-identical={same} ({len(first.encode())} bytes); wall "
        f"{e1:.2f} s and {e2:.2f} s (budget 5 s each, single-threaded)",
    )
