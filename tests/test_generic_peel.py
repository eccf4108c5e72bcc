"""The generic peel kernel: validation and bucket-kind agreement.

One flat-array skeleton parameterised by (initial values, decrement rule,
bucket kind) hosts the scenario variants; their parity suites (directed,
temporal, weighted, uncertain) cover the unit-rule path against the
object engines.
"""

import pytest

from repro.backends import as_csr
from repro.core.generic_peel import BUCKET_KINDS, generic_peel
from repro.errors import InvalidParameterError
from repro.kcore import core_numbers


def _no_rule(cell, peeled):
    return ()


class TestValidation:
    def test_needs_exactly_one_rule(self):
        with pytest.raises(InvalidParameterError):
            generic_peel([0, 0])
        with pytest.raises(InvalidParameterError):
            generic_peel([0, 0], unit_rule=_no_rule,
                         revalue_rule=lambda c, k, p, cur: ())

    def test_unknown_bucket_kind(self):
        with pytest.raises(InvalidParameterError, match="bucket kind"):
            generic_peel([0], unit_rule=_no_rule, bucket="fifo")
        assert BUCKET_KINDS == ("auto", "flat", "heap", "bucket")

    def test_unit_rule_rejects_lazy_buckets(self):
        for bucket in ("heap", "bucket"):
            with pytest.raises(InvalidParameterError):
                generic_peel([0], unit_rule=_no_rule, bucket=bucket)

    def test_revalue_rule_rejects_flat(self):
        with pytest.raises(InvalidParameterError):
            generic_peel([0], revalue_rule=lambda c, k, p, cur: (),
                         bucket="flat")

    def test_flat_needs_int_values(self):
        with pytest.raises(InvalidParameterError, match="integer cell"):
            generic_peel([1.5], unit_rule=_no_rule)

    def test_bucket_needs_int_values(self):
        with pytest.raises(InvalidParameterError, match="integer cell"):
            generic_peel([1.5], revalue_rule=lambda c, k, p, cur: (),
                         bucket="bucket")

    def test_negative_values_rejected(self):
        with pytest.raises(InvalidParameterError, match="non-negative"):
            generic_peel([-1], unit_rule=_no_rule)

    def test_empty(self):
        result = generic_peel([], unit_rule=_no_rule)
        assert result.lam == [] and result.max_lambda == 0


class TestBucketKindsAgree:
    """One decomposition, three bucket engines, identical λ.

    Unit-decrement core peeling re-expressed as a revalue rule must give
    the same core numbers through the heap and the lazy bucket queue as
    the flat block-swap layout does natively — λ is unique for monotone
    degree functions, whatever the tie order.
    """

    @staticmethod
    def _revalue_core(csr):
        indptr, indices, _ = csr.hot_arrays()

        def recount(v, k, peeled, current):
            for p in range(indptr[v], indptr[v + 1]):
                w = indices[p]
                if not peeled[w]:
                    yield w, current[w] - 1

        return recount

    def test_three_engines(self, social):
        csr = as_csr(social)
        expected = core_numbers(social)
        degrees = list(csr.degrees())
        rule = self._revalue_core(csr)
        indptr, indices, _ = csr.hot_arrays()

        def incident(v, peeled):
            return (indices[p] for p in range(indptr[v], indptr[v + 1]))

        assert generic_peel(degrees, unit_rule=incident).lam == expected
        assert generic_peel(degrees, revalue_rule=rule,
                            bucket="heap").lam == expected
        assert generic_peel(list(csr.degrees()), revalue_rule=rule,
                            bucket="bucket").lam == expected

    def test_float_heap_matches_int_heap(self, petersen):
        csr = as_csr(petersen)
        rule = self._revalue_core(csr)
        ints = generic_peel(list(csr.degrees()), revalue_rule=rule,
                            bucket="heap")
        floats = generic_peel([float(d) for d in csr.degrees()],
                              revalue_rule=rule, bucket="heap")
        assert floats.lam == [float(x) for x in ints.lam]
        assert isinstance(floats.max_lambda, float)
