import math

import numpy as np
import pytest

from squeezeamp import (
    FockSpace,
    MotionalState,
    DensityOperator,
    Displacement,
    SqueezeParam,
    coherent_state,
    squeezed_vacuum,
    squeeze_operator,
    fock_state,
    vacuum,
    ladder_lowering,
    ladder_raising,
    number_operator,
    expectation,
    fidelity,
    default_truncation,
)
from squeezeamp.fock import hermitian_propagator
from squeezeamp.errors import DimensionMismatchError, TruncationError


def test_space_requires_dim_two():
    with pytest.raises(ValueError):
        FockSpace(1)


def test_lowering_entries():
    a = ladder_lowering(FockSpace(2))
    assert np.allclose(a, [[0, 1], [0, 0]])
    a3 = ladder_lowering(FockSpace(3))
    assert a3[1, 2] == pytest.approx(math.sqrt(2))


def test_commutator_is_identity_on_interior():
    sp = FockSpace(32)
    a = ladder_lowering(sp)
    comm = a @ a.conj().T - a.conj().T @ a
    # the last diagonal entry is corrupted by truncation, by construction
    assert np.allclose(np.diag(comm)[:-1], 1.0, atol=1e-14)


def test_number_operator():
    sp = FockSpace(3)
    n = number_operator(sp)
    assert np.allclose(n, np.diag([0, 1, 2]))
    a = ladder_lowering(sp)
    assert np.allclose(a.conj().T @ a, n)
    assert expectation(fock_state(sp, 2), n) == pytest.approx(2.0)


def test_expectation_values():
    sp = FockSpace(64)
    n = number_operator(sp)
    assert expectation(vacuum(sp), n) == pytest.approx(0.0)
    cs = coherent_state(Displacement(0.5), sp)
    assert expectation(cs, n).real == pytest.approx(0.25, abs=1e-10)
    sv = squeezed_vacuum(SqueezeParam(1.0), FockSpace(128))
    assert expectation(sv, number_operator(FockSpace(128))).real == pytest.approx(
        math.sinh(1.0) ** 2, abs=1e-7
    )


def test_expectation_dimension_mismatch():
    sp = FockSpace(8)
    with pytest.raises(DimensionMismatchError):
        expectation(vacuum(sp), number_operator(FockSpace(9)))


def test_fidelity_basics():
    sp = FockSpace(16)
    assert fidelity(vacuum(sp), vacuum(sp)) == pytest.approx(1.0)
    assert fidelity(vacuum(sp), fock_state(sp, 1)) == pytest.approx(0.0)
    with pytest.raises(DimensionMismatchError):
        fidelity(vacuum(sp), vacuum(FockSpace(17)))


def test_squeeze_unsqueeze_returns_to_vacuum():
    sp = FockSpace(128)
    S = squeeze_operator(SqueezeParam(1.0), sp)
    state = MotionalState(sp, S.conj().T @ (S @ vacuum(sp).amps))
    assert fidelity(state, vacuum(sp)) == pytest.approx(1.0, abs=1e-10)


def test_matrix_exponential_identity_cases():
    sp = FockSpace(32)
    psi = coherent_state(Displacement(0.4), sp)
    out = hermitian_propagator(np.zeros((32, 32)), 1.0) @ psi.amps
    assert np.allclose(out, psi.amps)
    # integer spectrum: exp(-i n 2pi) = identity up to global phase
    out = hermitian_propagator(number_operator(sp), 2 * math.pi) @ psi.amps
    overlap = np.vdot(psi.amps, out)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_matrix_exponential_rejects_non_hermitian():
    sp = FockSpace(8)
    with pytest.raises(ValueError):
        hermitian_propagator(ladder_lowering(sp), 1.0)


def test_matrix_exponential_matches_squeezed_populations():
    # evolving |0> under i(g/2)(a^2 - a+^2) for gt = 0.5 gives squeezed vacuum r=0.5
    sp = FockSpace(64)
    a = ladder_lowering(sp)
    a2 = a @ a
    H = 1j * 0.5 * (a2 - a2.conj().T)  # g = 1; Hermitian
    out = MotionalState(sp, hermitian_propagator(H, 0.5) @ vacuum(sp).amps)
    ref = squeezed_vacuum(SqueezeParam(0.5), sp)
    assert np.max(np.abs(out.populations() - ref.populations())) < 1e-8
    assert out.norm == pytest.approx(1.0, abs=1e-10)


def test_tail_monitor():
    sp = FockSpace(8)
    with pytest.raises(TruncationError):
        coherent_state(Displacement(2.0), sp)
    # adequate space passes
    coherent_state(Displacement(2.0), FockSpace(96)).check_tail()


def test_normalized_constructor():
    sp = FockSpace(4)
    st = MotionalState.normalized(sp, [3.0, 4.0, 0, 0])
    assert st.norm == pytest.approx(1.0, abs=1e-12)
    assert sum(st.populations()) == pytest.approx(1.0, abs=1e-12)


def test_default_truncation_floor():
    assert default_truncation(0, 0) == 64
    assert default_truncation(2.54, 0) >= 8 * math.sinh(2.54) ** 2 + 40


def test_density_operator_from_state():
    sp = FockSpace(16)
    rho = DensityOperator.from_motional(coherent_state(Displacement(0.3), sp))
    assert rho.trace.real == pytest.approx(1.0, abs=1e-12)
    assert rho.hermiticity_defect() < 1e-14
    assert rho.min_eigenvalue() > -1e-12
    assert rho.motional_populations()[0] == pytest.approx(math.exp(-0.09), abs=1e-12)


def test_doubling_agreement():
    # populations computed at N and 2N agree on the shared range
    xi = SqueezeParam(1.5)
    p1 = squeezed_vacuum(xi, FockSpace(256)).populations()
    p2 = squeezed_vacuum(xi, FockSpace(512)).populations()
    assert np.max(np.abs(p1 - p2[:256])) < 1e-8
