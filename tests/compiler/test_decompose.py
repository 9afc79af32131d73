"""Unit tests for operation lowering — the software Table I."""

import pytest

from repro.compiler.decompose import (
    decompose_operation,
    keyswitch_digits,
    operator_usage,
)
from repro.compiler.ops import FheOp, FheOpName
from repro.errors import WorkloadError
from repro.sim.tasks import OperatorKind

N, L, AUX = 1 << 14, 10, 2


def op(name, **meta):
    return FheOp.make(name, N, L, aux_limbs=AUX, **meta)


def kinds_of(tasks):
    return {t.kind for t in tasks}


class TestKeyswitchDigits:
    def test_alpha_equals_aux(self):
        assert keyswitch_digits(op(FheOpName.KEYSWITCH)) == (L + 1 + 1) // 2

    def test_alpha_one_degrades_to_per_limb(self):
        o = FheOp.make(FheOpName.KEYSWITCH, N, L, aux_limbs=1)
        assert keyswitch_digits(o) == L + 1


class TestLowerings:
    def test_hadd_is_pure_ma(self):
        tasks = decompose_operation(op(FheOpName.HADD))
        assert kinds_of(tasks) == {OperatorKind.MA}

    def test_hadd_ct_pt_half_traffic(self):
        ct_ct = decompose_operation(op(FheOpName.HADD, kind="ct-ct"))[0]
        ct_pt = decompose_operation(op(FheOpName.HADD, kind="ct-pt"))[0]
        assert ct_pt.hbm_bytes < ct_ct.hbm_bytes

    def test_hadd_fused_no_traffic(self):
        fused = decompose_operation(op(FheOpName.HADD, kind="fused"))[0]
        assert fused.hbm_bytes == 0

    def test_pmult_is_pure_mm(self):
        tasks = decompose_operation(op(FheOpName.PMULT))
        assert kinds_of(tasks) == {OperatorKind.MM}

    def test_pmult_resident_reads_only_plaintext(self):
        normal = decompose_operation(op(FheOpName.PMULT))[0]
        resident = decompose_operation(
            op(FheOpName.PMULT, resident=True)
        )[0]
        assert resident.hbm_bytes < normal.hbm_bytes

    def test_cmult_uses_mm_ntt_ma(self):
        tasks = decompose_operation(op(FheOpName.CMULT))
        assert OperatorKind.MM in kinds_of(tasks)
        assert OperatorKind.NTT in kinds_of(tasks)
        assert OperatorKind.MA in kinds_of(tasks)

    def test_rotation_uses_all_operators(self):
        tasks = decompose_operation(op(FheOpName.ROTATION))
        assert OperatorKind.AUTO in kinds_of(tasks)
        assert OperatorKind.NTT in kinds_of(tasks)
        assert OperatorKind.MM in kinds_of(tasks)
        assert OperatorKind.MA in kinds_of(tasks)

    def test_hoisted_rotation_cheaper_than_full(self):
        full = decompose_operation(op(FheOpName.ROTATION))
        hoisted = decompose_operation(op(FheOpName.HOISTED_ROTATION))
        full_ntt = sum(
            t.elements for t in full
            if t.kind in (OperatorKind.NTT, OperatorKind.INTT)
        )
        hoisted_ntt = sum(
            t.elements for t in hoisted
            if t.kind in (OperatorKind.NTT, OperatorKind.INTT)
        )
        assert hoisted_ntt < full_ntt

    def test_keyswitch_task_count_scales_with_digits(self):
        narrow = FheOp.make(FheOpName.KEYSWITCH, N, L, aux_limbs=1)
        wide = FheOp.make(FheOpName.KEYSWITCH, N, L, aux_limbs=4)
        assert len(decompose_operation(narrow)) > len(
            decompose_operation(wide)
        )

    def test_rescale_needs_two_limbs(self):
        bad = FheOp.make(FheOpName.RESCALE, N, 0)
        with pytest.raises(WorkloadError):
            decompose_operation(bad)

    def test_bootstrap_has_no_direct_lowering(self):
        with pytest.raises(WorkloadError):
            decompose_operation(op(FheOpName.BOOTSTRAP))


class TestDagValidity:
    @pytest.mark.parametrize(
        "name",
        [FheOpName.HADD, FheOpName.PMULT, FheOpName.CMULT,
         FheOpName.RESCALE, FheOpName.KEYSWITCH, FheOpName.ROTATION,
         FheOpName.HOISTED_ROTATION, FheOpName.MODDROP],
    )
    def test_dependencies_backward_only(self, name):
        tasks = decompose_operation(op(name))
        for i, task in enumerate(tasks):
            for dep in task.depends_on:
                assert 0 <= dep < i

    def test_all_tasks_labelled(self):
        for name in (FheOpName.CMULT, FheOpName.ROTATION):
            for task in decompose_operation(op(name)):
                assert task.op_label == name.value


class TestOperatorUsage:
    def test_table1_rows(self):
        """The Table I reproduction: operator sets per operation."""
        usage = operator_usage(op(FheOpName.HADD))
        assert usage["MA"] and not usage["NTT/INTT"]
        usage = operator_usage(op(FheOpName.PMULT))
        assert usage["MM"] and not usage["SBT"] and not usage["Automorphism"]
        usage = operator_usage(op(FheOpName.ROTATION))
        assert all(usage.values())
        usage = operator_usage(op(FheOpName.KEYSWITCH))
        assert usage["MA"] and usage["MM"] and usage["NTT/INTT"]

    def test_exact_usage_map(self):
        """Pin the full Table I matrix: SBT only where a digit-lift
        task really exists (the keyswitch-bearing ops), never merely
        because MM/NTT tasks share the SBT silicon."""
        expected = {
            FheOpName.HADD: {
                "MA": True, "MM": False, "NTT/INTT": False,
                "Automorphism": False, "SBT": False,
            },
            FheOpName.PMULT: {
                "MA": False, "MM": True, "NTT/INTT": False,
                "Automorphism": False, "SBT": False,
            },
            FheOpName.CMULT: {
                "MA": True, "MM": True, "NTT/INTT": True,
                "Automorphism": False, "SBT": True,
            },
            FheOpName.RESCALE: {
                "MA": True, "MM": True, "NTT/INTT": True,
                "Automorphism": False, "SBT": False,
            },
            FheOpName.KEYSWITCH: {
                "MA": True, "MM": True, "NTT/INTT": True,
                "Automorphism": False, "SBT": True,
            },
            FheOpName.ROTATION: {
                "MA": True, "MM": True, "NTT/INTT": True,
                "Automorphism": True, "SBT": True,
            },
        }
        for name, row in expected.items():
            assert operator_usage(op(name)) == row, name.value

    def test_usage_decomposes_once(self):
        """operator_usage must not re-lower the op a second time."""
        from repro.compiler.decompose import (
            clear_lowering_cache,
            lowering_cache_info,
        )

        clear_lowering_cache()
        operator_usage(op(FheOpName.CMULT))
        info = lowering_cache_info()
        assert info["hits"] + info["misses"] == 1


class TestRotationAccounting:
    def test_final_accumulate_covers_both_parts(self):
        """The rotation's closing MA adds (delta0, delta1) into both
        ciphertext parts: 2 polys of MA work, matching CMult's closing
        accumulate and its own 2-poly result write."""
        tasks = decompose_operation(op(FheOpName.ROTATION))
        final = tasks[-1]
        assert final.kind is OperatorKind.MA
        assert final.elements == 2 * (L + 1) * N
        from repro.sim.config import LIMB_BYTES

        unit = (L + 1) * N * LIMB_BYTES
        assert final.hbm_write_bytes == 2 * unit

    def test_matches_cmult_accumulate_shape(self):
        rot = decompose_operation(op(FheOpName.ROTATION))[-1]
        cm = decompose_operation(op(FheOpName.CMULT))[-1]
        assert rot.elements == cm.elements
        assert rot.hbm_write_bytes == cm.hbm_write_bytes


class TestLoweringCache:
    def test_cache_hit_on_repeat(self):
        from repro.compiler.decompose import (
            clear_lowering_cache,
            lowering_cache_info,
        )

        clear_lowering_cache()
        a = decompose_operation(op(FheOpName.ROTATION))
        b = decompose_operation(op(FheOpName.ROTATION))
        info = lowering_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert a == b
        assert a is not b  # fresh list per call

    def test_annotations_share_cache_entry(self):
        from repro.compiler.decompose import (
            clear_lowering_cache,
            lowering_cache_info,
        )

        clear_lowering_cache()
        bare = decompose_operation(op(FheOpName.HADD))
        noted = decompose_operation(
            op(FheOpName.HADD, reads=("a", "b"), writes=("c",))
        )
        assert bare == noted
        assert lowering_cache_info() == {"hits": 1, "misses": 1, "size": 1}

    def test_distinct_meta_distinct_entries(self):
        from repro.compiler.decompose import (
            clear_lowering_cache,
            lowering_cache_info,
        )

        clear_lowering_cache()
        a = decompose_operation(op(FheOpName.HADD, kind="ct-ct"))
        b = decompose_operation(op(FheOpName.HADD, kind="ct-pt"))
        assert a != b
        assert lowering_cache_info()["size"] == 2
