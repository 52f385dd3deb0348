import pytest

from hxkit.errors import DomainError
from hxkit.verify import SUITES, Check, VerifyOutcome, run_suite


@pytest.fixture(scope="module")
def core():
    return run_suite("core")


@pytest.fixture(scope="module")
def quadrature():
    return run_suite("quadrature")


@pytest.fixture(scope="module")
def contour():
    return run_suite("contour")


class TestOutcomeShape:
    def test_passed_is_conjunction(self):
        ok = Check("a", 0.0, 1.0, True, "x")
        bad = Check("b", 2.0, 1.0, False, "x")
        assert VerifyOutcome("core", (ok,)).passed
        assert not VerifyOutcome("core", (ok, bad)).passed

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("everything")

    def test_bad_tol_scale(self):
        with pytest.raises(DomainError):
            run_suite("core", tol_scale=0.0)
        with pytest.raises(DomainError):
            run_suite("core", tol_scale=-2.0)

    def test_suite_names(self):
        assert SUITES == ("core", "quadrature", "contour", "all")


class TestCoreSuite:
    def test_healthy_build_passes(self, core):
        assert core.passed
        assert core.suite == "core"

    def test_expected_checks_present(self, core):
        names = [c.name for c in core.checks]
        for want in ("dft_oracle", "dft_roundtrip", "re_identity", "im_identity",
                     "route_ab", "halfband", "corollary_2_4"):
            assert want in names

    def test_im_identity_line_states_digit_floor(self, core):
        line = next(c.line for c in core.checks if c.name == "im_identity")
        assert "-log10 Linf >= 12" in line

    def test_identity_checks_are_cross_checks(self, core):
        # the public path satisfies both identities by construction for even n,
        # so each check reads one side off the full-length complex pipeline
        for name in ("re_identity", "im_identity"):
            check = next(c for c in core.checks if c.name == name)
            assert check.measured > 0.0
            assert "n in {63, 64, 1024}" in check.notes[0]

    def test_corollary_finding_text(self, core):
        check = next(c for c in core.checks if c.name == "corollary_2_4")
        assert "c_fit=-1.000" in check.line
        assert "NOT matched" in check.line
        assert check.passed

    def test_thresholds_recorded(self, core):
        for c in core.checks:
            assert c.measured >= 0.0
            assert c.threshold > 0.0
            assert c.passed == (c.measured <= c.threshold)

    def test_deterministic_given_seed(self, core):
        again = run_suite("core", seed=42)
        assert [c.measured for c in again.checks] == [c.measured for c in core.checks]


class TestQuadratureSuite:
    def test_healthy_build_passes(self, quadrature):
        assert quadrature.passed

    def test_expected_checks_present(self, quadrature):
        names = [c.name for c in quadrature.checks]
        for want in ("pv_demo", "lorentzian_pv", "stieltjes", "derivative_swap_interior",
                     "corollary_2_4_quadrature"):
            assert want in names

    def test_quadrature_side_corollary_agrees(self, quadrature):
        check = next(c for c in quadrature.checks if c.name == "corollary_2_4_quadrature")
        assert "NOT matched" in check.line
        assert check.passed


class TestContourSuite:
    def test_healthy_build_passes(self, contour):
        assert contour.passed

    def test_lemma_finding_compares_both_predictions(self, contour):
        check = next(c for c in contour.checks if c.name == "lemma_2_6")
        notes = " ".join(check.notes)
        assert "claimed f(z)" in notes
        assert "start-corrected" in notes
        assert "M=65536" in notes
        assert "|vs claimed|" in notes

    def test_expected_checks_present(self, contour):
        names = [c.name for c in contour.checks]
        for want in ("cauchy_poly", "shape_invariance", "refinement", "kernel_orders"):
            assert want in names


class TestAllSuite:
    def test_concatenates_everything(self, core, quadrature, contour):
        combined = run_suite("all")
        assert combined.passed
        assert len(combined.checks) == (
            len(core.checks) + len(quadrature.checks) + len(contour.checks)
        )

    def test_impossible_tolerance_fails_honestly(self):
        strangled = run_suite("quadrature", tol_scale=1e-18)
        assert not strangled.passed
