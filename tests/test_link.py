"""Link spectral data, stability classification, and the admissibility gap."""

import itertools
import math

import numpy as np
import pytest

from conelab import link as linkmod
from conelab.link import (
    LinkData,
    SpectrumTruncationError,
    STRICTLY_STABLE,
    STABLE_NOT_STRICT,
    UNSTABLE,
    UNDECIDABLE,
    check_admissibility_gap,
    check_tangential_stability,
    get_link,
    parse_link_file,
    sphere_link,
)


def harmonic_dimension_bruteforce(n: int, k: int) -> int:
    """dim of degree-k harmonic homogeneous polynomials in n+1 variables.

    Counts ker(Laplacian: P_k -> P_{k-2}) by the rank of the Laplacian on an
    explicit monomial basis; independent of the closed-form multiplicity.
    """
    d = n + 1
    monos_k = [m for m in itertools.product(range(k + 1), repeat=d)
               if sum(m) == k]
    if k < 2:
        return len(monos_k)
    monos_k2 = [m for m in itertools.product(range(k - 1), repeat=d)
                if sum(m) == k - 2]
    index = {m: i for i, m in enumerate(monos_k2)}
    lap = np.zeros((len(monos_k2), len(monos_k)))
    for j, m in enumerate(monos_k):
        for axis in range(d):
            if m[axis] >= 2:
                tgt = list(m)
                tgt[axis] -= 2
                lap[index[tuple(tgt)], j] += m[axis] * (m[axis] - 1)
    return len(monos_k) - np.linalg.matrix_rank(lap)


def test_sphere_multiplicities_match_harmonic_polynomial_count():
    for n in range(1, 6):
        link = sphere_link(n, 10)
        for k, (ev, mult) in enumerate(link.laplace_spectrum):
            assert ev == k * (k + n - 1)
            assert mult == harmonic_dimension_bruteforce(n, k)


def test_circle_spectrum():
    link = sphere_link(1, 3)
    assert [ev for ev, _ in link.laplace_spectrum] == [0, 1, 4, 9]
    assert [mu for _, mu in link.laplace_spectrum] == [1, 2, 2, 2]


def test_s3_first_eigenvalue():
    link = sphere_link(3, 1)
    assert link.laplace_spectrum[1] == (3.0, 4)
    assert link.lambda_1 == 3.0


def test_s2_second_eigenvalue():
    link = sphere_link(2, 2)
    assert link.laplace_spectrum[2] == (6.0, 5)


def test_sphere_link_needs_a_nonzero_mode():
    with pytest.raises(ValueError) as info:
        sphere_link(3, 0)
    assert str(info.value) == "link S3: k_max = 0 must be at least 1"


def test_sphere_link_metadata():
    link = sphere_link(3, 6)
    assert link.n == 3
    assert link.scal_F == 6.0
    assert abs(link.vol_F - 2.0 * math.pi**2) < 1e-12
    assert link.truncation_note == 6 * 8
    assert link.scal_is_normalized()


def _synthetic(n, eigs, tt=None, trunc=None, scal=None, vol=1.0):
    spec = tuple((float(e), 1) for e in eigs)
    return LinkData(n=n, scal_F=float(n * (n - 1)) if scal is None else scal,
                    vol_F=vol, laplace_spectrum=spec,
                    truncation_note=float(trunc if trunc is not None
                                          else eigs[-1]),
                    einstein_tt_spectrum=tuple(tt) if tt else None)


class TestTangentialStability:
    def test_round_s3_with_positive_tt_is_stable_not_strict(self):
        # lambda_1 = 3 = n and lambda_2 = 8 = 2(n+1) sit exactly on the
        # closed-interval endpoints, so strictness fails
        base = sphere_link(3, 6)
        link = LinkData(n=3, scal_F=6.0, vol_F=base.vol_F,
                        laplace_spectrum=base.laplace_spectrum,
                        truncation_note=base.truncation_note,
                        einstein_tt_spectrum=(0.5, 2.0))
        assert check_tangential_stability(link) == STABLE_NOT_STRICT

    def test_eigenvalue_in_open_interval_is_unstable(self):
        link = _synthetic(3, [0, 5, 9], tt=[1.0])
        assert check_tangential_stability(link) == UNSTABLE

    def test_missing_tt_spectrum_is_undecidable(self):
        link = _synthetic(3, [0, 9, 10])
        assert check_tangential_stability(link) == UNDECIDABLE

    def test_clear_gap_and_positive_tt_is_strictly_stable(self):
        link = _synthetic(3, [0, 9, 10], tt=[0.5])
        assert check_tangential_stability(link) == STRICTLY_STABLE

    def test_negative_tt_is_unstable(self):
        link = _synthetic(3, [0, 9, 10], tt=[-0.1, 1.0])
        assert check_tangential_stability(link) == UNSTABLE

    def test_truncated_spectrum_raises_never_silent(self):
        link = sphere_link(3, 1)  # complete only up to 3 < 8
        with pytest.raises(SpectrumTruncationError):
            check_tangential_stability(link)

    def test_unnormalized_scal_rejected(self):
        link = _synthetic(3, [0, 9, 10], tt=[0.5], scal=5.0)
        with pytest.raises(ValueError):
            check_tangential_stability(link)

    def test_enlarging_tt_entries_never_destabilizes(self):
        # monotonicity: raising a TT eigenvalue can only move the verdict
        # away from unstable
        order = {UNSTABLE: 0, UNDECIDABLE: 1, STABLE_NOT_STRICT: 2,
                 STRICTLY_STABLE: 3}
        for tt0 in (-0.5, 0.0, 0.3):
            for bump in (0.1, 1.0, 5.0):
                before = check_tangential_stability(
                    _synthetic(3, [0, 9, 10], tt=[tt0]))
                after = check_tangential_stability(
                    _synthetic(3, [0, 9, 10], tt=[tt0 + bump]))
                assert order[after] >= order[before]


class TestAdmissibilityGap:
    def test_round_s3(self, s3):
        assert check_admissibility_gap(s3) is True

    def test_small_gap_fails(self):
        assert check_admissibility_gap(_synthetic(4, [0, 3.5, 9])) is False

    def test_boundary_case_counts(self):
        assert check_admissibility_gap(_synthetic(2, [0, 2.0, 7])) is True

    def test_no_nonzero_eigenvalue_needs_completeness(self):
        link = _synthetic(3, [0], trunc=1.0)
        with pytest.raises(SpectrumTruncationError):
            check_admissibility_gap(link)
        assert check_admissibility_gap(_synthetic(3, [0], trunc=4.0)) is True


class TestValidation:
    def test_eigenvalues_must_increase(self):
        with pytest.raises(ValueError):
            _synthetic(3, [0, 5, 5])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            _synthetic(3, [-1, 5])

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            LinkData(n=3, scal_F=6.0, vol_F=1.0,
                     laplace_spectrum=((0.0, 1), (3.0, 0)),
                     truncation_note=3.0)

    def test_bad_dimension_and_volume(self):
        with pytest.raises(ValueError):
            _synthetic(0, [0, 3])
        with pytest.raises(ValueError):
            _synthetic(3, [0, 3], vol=0.0)


def test_link_file_round_trip(tmp_path):
    path = tmp_path / "link.txt"
    path.write_text(
        "# synthetic test link\n"
        "n = 3\n"
        "scal_F = 6.0\n"
        "vol_F = 19.7392088\n"
        "truncation = 12.0\n"
        "eig = 0 1\n"
        "eig = 9 4   # above the forbidden band\n"
        "tt = 0.5 1.25\n"
    )
    link = parse_link_file(str(path))
    assert link.n == 3
    assert link.laplace_spectrum == ((0.0, 1), (9.0, 4))
    assert link.einstein_tt_spectrum == (0.5, 1.25)
    assert link.truncation_note == 12.0
    assert check_tangential_stability(link) == STRICTLY_STABLE


def test_link_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n = 3\nvol_F = 1.0\neig = 0 1\n")
    with pytest.raises(ValueError, match="scal_F"):
        parse_link_file(str(bad))
    bad.write_text("n = 3\nscal_F = 6\nvol_F = 1\nwhat = 7\n")
    with pytest.raises(ValueError, match="unknown"):
        parse_link_file(str(bad))


def test_get_link_by_name_and_path(tmp_path):
    assert get_link("S3", k_max=4).name == "S3"
    assert get_link("S2").n == 2
    path = tmp_path / "l.txt"
    path.write_text("n = 2\nscal_F = 2.0\nvol_F = 12.566\neig = 0 1\neig = 2 3\n")
    assert get_link(str(path)).n == 2
