"""The test suite's own setup: a failing property test is reported as one
failure, and the tests after it still run."""

import pytest


def test_a_failing_property_test_does_not_abort_the_run(pytester):
    # the suite's warning filter, a falsifying example and a sibling test
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile('''
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_sibling():
            pass
    ''')
    result = pytester.runpytest("-p", "no:cacheprovider")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1, passed=1)
