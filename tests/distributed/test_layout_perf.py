"""Fig. 5 layout and performance-model tests."""

import numpy as np
import pytest

from repro.core import PAPER_CONFIGS
from repro.distributed import (
    CompositePlan,
    DownscalingWorkload,
    VirtualCluster,
    max_output_tokens,
    memory_per_gpu_bytes,
    strong_scaling_efficiency,
    sustained_flops,
    time_per_sample,
    transformer_flops,
    workload_flops_per_sample,
)

CFG = PAPER_CONFIGS["9.5M"]


class TestParallelLayout:
    """The Fig. 5 placement (TP in a node, FSDP paired across neighbouring
    nodes, DDP across 16-GPU groups) expressed as a ``CompositePlan``."""

    def test_paper_configuration_validates(self):
        plan = CompositePlan(VirtualCluster(64), tp=8, fsdp=2, tiles=1, ddp=4)
        plan.validate()
        assert plan.level_sizes() == {"tp": 8, "fsdp": 2, "tiles": 1, "ddp": 4}

    def test_group_shapes(self):
        """World 32: TP is one node, FSDP pairs rank r with r + 8 on the
        neighbouring node, DDP strides by the 16-GPU group."""
        plan = CompositePlan(VirtualCluster(32), tp=8, fsdp=2, tiles=1, ddp=2)
        plan.validate()
        sets = plan.level_rank_sets()
        assert sorted(sets["tp"]) == [list(range(b, b + 8)) for b in range(0, 32, 8)]
        assert sorted(sets["fsdp"]) == [[b + o, b + o + 8]
                                        for b in (0, 16) for o in range(8)]
        assert sorted(sets["ddp"]) == [[o, o + 16] for o in range(16)]

    def test_fsdp_pairs_cross_nodes(self):
        plan = CompositePlan(VirtualCluster(16), tp=8, fsdp=2, tiles=1, ddp=1)
        topo = plan.cluster.topology
        pairs = plan.level_rank_sets()["fsdp"]
        assert pairs and all(topo.node_of(a) != topo.node_of(b) for a, b in pairs)

    def test_communication_hierarchy_mapping(self):
        """TP on in-node links, FSDP and DDP on cross-node links."""
        plan = CompositePlan(VirtualCluster(64), tp=8, fsdp=2, tiles=1, ddp=4)
        assert plan.communication_hierarchy() == {
            "tp": "SAME_NODE", "fsdp": "CROSS_NODE", "tiles": "local",
            "ddp": "CROSS_NODE"}


class TestWorkloadAccounting:
    def test_output_tokens_match_paper_rows(self):
        """Table III sequence counting: [5760, 11520, 18] with 2x2 patches
        = 298M tokens; [21600, 43200, 18] = 4.2B tokens."""
        w = DownscalingWorkload(CFG, (1440, 2880), factor=4, out_channels=18)
        assert w.output_tokens == pytest.approx(298e6, rel=0.01)
        w2 = DownscalingWorkload(CFG, (5400, 10800), factor=4, out_channels=18)
        assert w2.output_tokens == pytest.approx(4.2e9, rel=0.01)

    def test_table2a_vit_sequence(self):
        """Table II(a): [128,256,3] output, 2x2 patches → 24,576 tokens."""
        w = DownscalingWorkload(CFG, (32, 64), factor=4, out_channels=3,
                                architecture="vit")
        assert w.attention_tokens_total == 24576

    def test_reslim_sequence_factor2_advantage(self):
        vit = DownscalingWorkload(CFG, (32, 64), factor=4, out_channels=3,
                                  architecture="vit")
        res = DownscalingWorkload(CFG, (32, 64), factor=4, out_channels=3)
        assert vit.attention_tokens_total / res.attention_tokens_total == 48  # 16x space * 3 vars

    def test_halo_inflates_tile_tokens(self):
        flat = DownscalingWorkload(CFG, (180, 360), tiles=16, halo_tokens=0)
        halo = DownscalingWorkload(CFG, (180, 360), tiles=16, halo_tokens=8)
        assert halo.attention_tokens_per_tile() > flat.attention_tokens_per_tile()

    def test_compression_divides_sequence(self):
        base = DownscalingWorkload(CFG, (180, 360))
        comp = DownscalingWorkload(CFG, (180, 360), compression=8.0)
        assert comp.attention_tokens_core == base.attention_tokens_core // 8

    def test_validation(self):
        with pytest.raises(ValueError):
            DownscalingWorkload(CFG, (16, 16), architecture="swin")
        with pytest.raises(ValueError):
            DownscalingWorkload(CFG, (16, 16), tiles=0)


class TestFlops:
    def test_attention_term_quadratic(self):
        f1 = transformer_flops(1000, CFG) - transformer_flops(0, CFG)
        # isolate: attention scales 4x when seq doubles, projections 2x
        attn_1k = 4.0 * 1000**2 * CFG.embed_dim * CFG.depth * 3
        proj_1k = 24.0 * 1000 * CFG.embed_dim**2 * CFG.depth * 3
        assert transformer_flops(1000, CFG) == pytest.approx(attn_1k + proj_1k)

    def test_tiles_divide_attention_only(self):
        full = transformer_flops(1000, CFG, attention_divisor=1)
        tiled = transformer_flops(1000, CFG, attention_divisor=10)
        assert tiled < full
        proj = 3 * 24.0 * 1000 * CFG.embed_dim**2 * CFG.depth
        assert tiled > proj  # projections unchanged

    def test_training_is_3x_forward(self):
        assert transformer_flops(100, CFG, training=True) == \
            pytest.approx(3 * transformer_flops(100, CFG, training=False))

    def test_reslim_vs_vit_flops_ratio_matches_paper_speedup(self):
        """Table II(a): the compute-bound Reslim/ViT ratio is ~600x,
        the basis of the paper's 660x measured speedup."""
        vit = DownscalingWorkload(CFG, (32, 64), factor=4, out_channels=3,
                                  architecture="vit")
        res = DownscalingWorkload(CFG, (32, 64), factor=4, out_channels=3)
        ratio = workload_flops_per_sample(vit) / workload_flops_per_sample(res)
        assert 300 < ratio < 1000


class TestMemoryModel:
    def test_naive_vit_ooms_at_table2_scale(self):
        """Table II(a): ViT at 777K tokens OOMs on 128 GPUs."""
        w = DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3,
                                architecture="vit", flash_attention=False)
        assert memory_per_gpu_bytes(w, 128) > 64 * 1024**3

    def test_reslim_fits_same_task(self):
        w = DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3)
        assert memory_per_gpu_bytes(w, 128) < 64 * 1024**3

    def test_flash_memory_below_naive(self):
        w_f = DownscalingWorkload(CFG, (180, 360), flash_attention=True)
        w_n = DownscalingWorkload(CFG, (180, 360), flash_attention=False)
        assert memory_per_gpu_bytes(w_f, 8) < memory_per_gpu_bytes(w_n, 8)

    def test_tiles_and_compression_extend_max_sequence(self):
        plain = max_output_tokens(CFG, 8)
        boosted = max_output_tokens(CFG, 8, tiles=16, compression=4.0)
        assert boosted.output_tokens > 2 * plain.output_tokens

    def test_table3_orderings(self):
        """Reslim >> ViT; larger model → shorter max sequence."""
        vit = max_output_tokens(CFG, 8, architecture="vit", flash_attention=False)
        res = max_output_tokens(CFG, 8)
        assert res.output_tokens > 50 * vit.output_tokens
        big = max_output_tokens(PAPER_CONFIGS["10B"], 8)
        assert big.output_tokens < res.output_tokens

    def test_billion_token_scale_reached(self):
        """The headline: >1B tokens with 16 tiles + 4x compression."""
        w = max_output_tokens(CFG, 128, tiles=16, compression=4.0)
        assert w.output_tokens > 1e9


class TestTimeModel:
    def test_reslim_beats_vit_by_orders_of_magnitude(self):
        vit = DownscalingWorkload(CFG, (32, 64), factor=4, out_channels=3,
                                  architecture="vit")
        res = DownscalingWorkload(CFG, (32, 64), factor=4, out_channels=3)
        speedup = time_per_sample(vit, 128) / time_per_sample(res, 128)
        assert speedup > 50

    def test_compression_speedup_with_diminishing_returns(self):
        base = DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3)
        tb = time_per_sample(base, 128)
        speedups = []
        for c in (8.0, 16.0, 32.0):
            wc = DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3,
                                     compression=c)
            speedups.append(tb / time_per_sample(wc, 128))
        assert speedups[0] > 2.0
        assert speedups[1] > speedups[0]
        # diminishing: the 16->32 gain is smaller than the 8->16 gain
        assert speedups[2] - speedups[1] < speedups[1] - speedups[0]

    def test_tiling_peaks_then_degrades(self):
        """Table II(b): 16 tiles beat 4; 36 tiles fall back (halo cost)."""
        base = DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3)
        tb = time_per_sample(base, 128)
        s = {t: tb / time_per_sample(
            DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3, tiles=t), 128)
            for t in (4, 16, 36)}
        assert s[16] > 1.0
        assert s[16] > s[36]

    def test_strong_scaling_efficiency_band(self):
        """Fig. 6(b): 92-98% efficiency from 512 to 32,768 GPUs."""
        for name in PAPER_CONFIGS:
            w = DownscalingWorkload(PAPER_CONFIGS[name], (180, 360), factor=4,
                                    out_channels=3, tiles=16)
            eff = strong_scaling_efficiency(w, [512, 2048, 8192, 32768])
            assert eff[512] == pytest.approx(1.0)
            assert 0.90 <= eff[32768] <= 1.0, name

    def test_sustained_flops_ordering(self):
        """Fig. 6(b): the 9.5M model underutilizes; larger models reach
        ExaFLOPS."""
        rates = {}
        for name in ("9.5M", "126M", "10B"):
            w = DownscalingWorkload(PAPER_CONFIGS[name], (180, 360), factor=4,
                                    out_channels=3, tiles=16)
            rates[name] = sustained_flops(w, 32768)
        assert rates["9.5M"] < rates["126M"]
        assert rates["9.5M"] < rates["10B"]
        assert rates["10B"] > 1e18       # ExaFLOPS territory
        assert rates["9.5M"] < 1e18      # PetaFLOPS territory

    def test_tiles_scaling_near_linear(self):
        """Fig. 6(a): speedup grows ~linearly with GPU count."""
        base8 = time_per_sample(
            DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3), 8)
        wt = DownscalingWorkload(CFG, (180, 360), factor=4, out_channels=3, tiles=16)
        s512 = base8 / time_per_sample(wt, 512)
        s2048 = base8 / time_per_sample(wt, 2048)
        assert 3.0 < s2048 / s512 <= 4.2
        assert s2048 > 100

    def test_validation(self):
        w = DownscalingWorkload(CFG, (32, 64))
        with pytest.raises(ValueError):
            time_per_sample(w, 0)
        with pytest.raises(ValueError):
            memory_per_gpu_bytes(w, 0)
