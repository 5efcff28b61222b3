import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flexctl import controller
from flexctl.controller import (GUARD_EVENTS, ControlOutput, GainSet, SamplingTooSmallError,
                                control_input, law_terms)
from flexctl.discretizer import discretize
from flexctl.matseries import phi
from flexctl.plant import (DesiredState, MotorParams, PlantState, continuous_matrices,
                           energy, energy_rate, energy_weights)
from flexctl.stability import check_conditions, lyapunov, v_prime

P = MotorParams()
GAINS = GainSet()
DES = DesiredState()
X0 = PlantState(0.4, 5.0, 0.1)


def control(x, model, u_prev, gains=GAINS, d=DES):
    """control_input at the PlantState x, with psi_s = phi(A h_s) built here."""
    return control_input(law_terms(x.as_array(), d, model, gains), u_prev,
                         phi(model.A * gains.h_s))


def retuned_gain(x, u_prev, h, gains=GAINS):
    return control(x, discretize(P, h), u_prev, gains).k_E_used


def test_dynamic_gain_at_standard_period():
    # ratio is exactly one when h_k equals h_s, so k_E = k_E_s + K_c
    for u_prev in (0.0, 5.0, -12.0):
        gain = retuned_gain(X0, u_prev, GAINS.h_s)
        assert gain == pytest.approx(725.0 + 610.0, abs=1e-9)


def test_constant_mode_returns_standard_gain():
    gains = GainSet(gain_mode="constant")
    assert retuned_gain(X0, 0.0, 0.07, gains) == 725.0


def test_zero_state_falls_back():
    assert retuned_gain(PlantState(0, 0, 0), 0.0, 0.08) == GAINS.k_E_s


def test_dynamic_gain_clamped_from_below():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = PlantState(*rng.uniform(-10, 10, size=3))
        h = float(rng.uniform(0.05, 0.2))
        u_prev = float(rng.uniform(-45, 45))
        assert retuned_gain(x, u_prev, h) >= GAINS.K_c


def test_rest_state_at_origin_gets_energy_floor():
    model = discretize(P, 0.11)
    out = control(PlantState(0, 0, 0), model, u_prev=0.0, d=DesiredState(theta_d=0.0))
    assert out.guard_event == "energy_floor"
    assert out.u == 0.0
    assert not out.saturated


def test_closure_identity_on_random_states():
    # the law is defined by zeroing V'; check |V'| against the term magnitudes
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        x = PlantState(*rng.uniform(-10, 10, size=3))
        h = float(rng.uniform(0.05, 0.2))
        u_prev = float(rng.uniform(-45, 45))
        model = discretize(P, h)
        xv = x.as_array()
        terms = law_terms(xv, DES, model, GAINS)
        out = control_input(terms, u_prev, phi(model.A * GAINS.h_s))
        if out.saturated or out.guard_event != "none":
            continue
        checked += 1
        vp = v_prime(terms, out.u, out.k_E_used)
        f_m = model.F[1]
        t1 = out.k_E_used * energy(x, P) * energy_rate(x, out.u, h, P)
        t2 = GAINS.k_D / h * (x.omega - DES.omega_d) * (float(f_m @ xv) - x.omega)
        t3 = GAINS.k_P * (x.theta - DES.theta_d) * x.omega
        assert abs(vp) <= 1e-7 * (1.0 + abs(t1) + abs(t2) + abs(t3))


def test_law_reads_the_motor_from_its_model():
    # a model of a second motor: V and the zeroed V' are that motor's, with
    # no motor parameters passed beside the model
    p2 = MotorParams(L=2e-3, J=0.01, K_L=0.8)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        x = PlantState(*rng.uniform(-10, 10, size=3))
        h = float(rng.uniform(0.05, 0.2))
        model = discretize(p2, h)
        terms = law_terms(x.as_array(), DES, model, GAINS)
        out = control_input(terms, float(rng.uniform(-45, 45)), phi(model.A * GAINS.h_s))
        if out.saturated or out.guard_event != "none":
            continue
        checked += 1
        sample = check_conditions(terms, out.u, out.k_E_used)
        assert sample.V == lyapunov(x.omega, x.theta, DES, energy(x, p2), GAINS, out.k_E_used)
        assert sample.V != lyapunov(x.omega, x.theta, DES, energy(x, P), GAINS, out.k_E_used)

        fmx = float(model.F[1] @ x.as_array())
        t_DP = (GAINS.k_D / h * (x.omega - DES.omega_d) * (fmx - x.omega)
                + GAINS.k_P * (x.theta - DES.theta_d) * x.omega)
        t_E = out.k_E_used * energy(x, p2) * energy_rate(x, out.u, h, p2)
        assert abs(t_E + t_DP) <= 1e-7 * (1.0 + abs(t_E) + abs(t_DP))
        t_E_ref = out.k_E_used * energy(x, P) * energy_rate(x, out.u, h, P)
        assert abs(t_E_ref + t_DP) > 1e-3 * (1.0 + abs(t_E_ref) + abs(t_DP))


def test_large_error_state_saturates():
    # theta error of 10 rad with the shaft receding at 50 rad/s; the reference
    # initial state also drives u_raw far beyond the 45 V limit
    model = discretize(P, 0.11)
    for x in (PlantState(0.0, -50.0, DES.theta_d + 10.0), X0):
        out = control(x, model, u_prev=0.0)
        assert out.saturated
        assert abs(out.u) == GAINS.u_sat


def test_output_always_within_saturation():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = PlantState(*rng.uniform(-50, 50, size=3))
        model = discretize(P, float(rng.uniform(0.05, 0.2)))
        out = control(x, model, float(rng.uniform(-100, 100)))
        assert abs(out.u) <= GAINS.u_sat


def test_sampling_floor_raises():
    model = discretize(P, 5e-5)
    with pytest.raises(SamplingTooSmallError):
        control(X0, model, 0.0)


def test_nan_period_raises():
    # NaN compares false with the floor; the law would return u = nan
    model = discretize(P, 0.1)._replace(h=math.nan)
    with pytest.raises(SamplingTooSmallError, match="h = nan is below the sampling floor"):
        control(X0, model, 0.0)


def test_denominator_floor_holds_previous_input():
    h = 0.11
    model = discretize(P, h)
    A, B = continuous_matrices(P)
    v = np.diag(energy_weights(P)) @ phi(A * h) @ B
    x = PlantState(v[1], -v[0], 0.0)  # x . (D phi B) = 0 exactly
    out = control(x, model, u_prev=7.5)
    assert out.guard_event == "denominator_floor"
    assert out.u == 7.5

    out_big = control(x, model, u_prev=100.0)
    assert out_big.u == GAINS.u_sat
    assert out_big.saturated


def test_gain_fallback_event_surfaces():
    h = 0.09
    model = discretize(P, h)
    A, B = continuous_matrices(P)
    xv = X0.as_array()
    w = xv @ np.diag(energy_weights(P)) @ phi(A * h)
    hold = -float(w @ (A @ xv)) / float(w @ B)  # makes E'(h_k) vanish
    out = control(X0, model, u_prev=hold)
    assert out.guard_event == "gain_fallback"
    assert out.k_E_used == GAINS.k_E_s


def test_determinism():
    model = discretize(P, 0.13)
    a = control(X0, model, 1.25)
    b = control(X0, model, 1.25)
    assert a == b
    assert isinstance(a, ControlOutput)


def test_law_terms_carry_their_sample():
    model = discretize(P, 0.13)
    gains, d = GainSet(k_P=50.0), DesiredState(theta_d=-1.0)
    terms = law_terms(X0.as_array(), d, model, gains)
    assert terms.model is model and terms.gains is gains and terms.d is d


def test_no_call_takes_law_terms_beside_their_context():
    # a per-sample call reads the model, gains and target from the terms
    package = Path(controller.__file__).parent
    context = {"DiscreteModel", "GainSet", "DesiredState"}
    offenders = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kinds = {ast.unparse(a.annotation) for a in fn.args.args if a.annotation}
                if "LawTerms" in kinds and kinds & context:
                    offenders.append(f"{path.name}:{fn.name}")
    assert offenders == []


# the per-sample path, by module and qualified name; every product of
# 3-vectors there is ndarray.dot, which skips the `@` ufunc dispatch
HOT_PATH = {"controller.py": {"law_terms", "LawTerms.rate", "_gain_with_event", "control_input"},
            "stability.py": {"check_conditions", "v_prime"},
            "simulator.py": {"run"}}


def matmul_census(tree, names):
    """{qualified name: lines of its `@` and `@=`} for each of the named
    functions (and methods, as Class.method) defined in the module tree."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if name in names:
                    found[name] = [n.lineno for n in ast.walk(child)
                                   if isinstance(getattr(n, "op", None), ast.MatMult)]
                visit(child, name + ".")

    visit(tree, "")
    return found


def test_no_matmul_operator_on_the_per_sample_path():
    package = Path(controller.__file__).parent
    for module, names in HOT_PATH.items():
        census = matmul_census(ast.parse((package / module).read_text()), names)
        assert census == {name: [] for name in names}, module


def test_census_sees_the_matmul_operator():
    tree = ast.parse("def law_terms(x):\n"
                     "    return x.dot(x) @ x\n"
                     "class LawTerms:\n"
                     "    def rate(self, v):\n"
                     "        v @= self.w\n"
                     "def other(x):\n"
                     "    return x @ x\n")
    assert matmul_census(tree, {"law_terms", "LawTerms.rate", "run"}) == {
        "law_terms": [2], "LawTerms.rate": [5]}


def vectors(*shape):
    """float64 arrays of any values: signed zeros, subnormals, +-inf and NaN included."""
    return hnp.arrays(np.float64, shape, elements=st.floats(width=64))


SPECIALS = np.array([0.0, -0.0, 5e-324, -2.2e-308, np.inf, -np.inf, np.nan, 1.5])


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([((3,), (3,)), ((3, 3), (3,)), ((3,), (3, 3))]).flatmap(
    lambda shapes: st.tuples(vectors(*shapes[0]), vectors(*shapes[1]))))
@example((SPECIALS[:3], SPECIALS[3:6]))
@example((SPECIALS[[0, 1, 7]], SPECIALS[[1, 2, 6]]))
@example((np.resize(SPECIALS, (3, 3)), SPECIALS[[2, 7, 1]]))
@example((SPECIALS[[1, 0, 3]], np.resize(SPECIALS[::-1], (3, 3))))
def test_dot_has_the_bytes_of_the_matmul_operator(operands):
    # the per-sample path writes its products as a.dot(b) on the premise that
    # it runs the same BLAS kernel as a @ b; if a numpy or BLAS upgrade splits
    # them, this fails before the gate's compare_1..10 trace entries do
    a, b = operands
    with np.errstate(all="ignore"):
        dot, matmul = a.dot(b), a @ b
    assert np.asarray(dot).tobytes() == np.asarray(matmul).tobytes()


def test_guard_events_are_the_ones_the_law_reports():
    # every guard_event= the controller passes is a literal of GUARD_EVENTS
    tree = ast.parse(inspect.getsource(controller))
    reported = {node.value for kw in ast.walk(tree)
                if isinstance(kw, ast.keyword) and kw.arg == "guard_event"
                for node in ast.walk(kw.value) if isinstance(node, ast.Constant)}
    assert reported == set(GUARD_EVENTS)


def test_gain_and_guard_validation():
    with pytest.raises(ValueError):
        GainSet(k_P=-1.0)
    with pytest.raises(ValueError):
        GainSet(gain_mode="sometimes")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["k_E_s", "k_P", "k_D", "K_c", "h_s"])
def test_gains_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GainSet(**{name: value})


def test_infinite_u_sat_is_an_unsaturated_law():
    gains = GainSet(u_sat=math.inf)
    out = control(X0, discretize(P, 0.11), 0.0, gains)
    assert not out.saturated
    assert abs(out.u) > GAINS.u_sat  # the reference state saturates at 45 V
    with pytest.raises(ValueError):
        GainSet(u_sat=math.nan)
