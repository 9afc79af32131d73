"""Tests for the private-statistics functional workload."""

import numpy as np
import pytest

from repro.workloads.statistics import encrypted_mean_variance


class TestFunctional:
    def test_mean_variance_match_plaintext(self, params, encoder,
                                           encryptor, decryptor, evaluator):
        rng = np.random.default_rng(4)
        records = rng.normal(0.1, 0.3, 32)
        mean, var = encrypted_mean_variance(
            evaluator, encoder, encryptor, decryptor, records
        )
        assert abs(mean - np.mean(records)) < 1e-2
        assert abs(var - np.var(records)) < 1e-2

    def test_constant_records_zero_variance(self, params, encoder,
                                            encryptor, decryptor,
                                            evaluator):
        records = np.full(16, 0.25)
        mean, var = encrypted_mean_variance(
            evaluator, encoder, encryptor, decryptor, records
        )
        assert abs(mean - 0.25) < 1e-2
        assert abs(var) < 1e-2

    def test_too_many_records_rejected(self, params, encoder, encryptor,
                                       decryptor, evaluator):
        with pytest.raises(ValueError):
            encrypted_mean_variance(
                evaluator, encoder, encryptor, decryptor,
                np.zeros(params.slot_count + 1),
            )
