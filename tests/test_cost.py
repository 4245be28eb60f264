"""The repro.cost layer: golden scalar regression, composition semantics,
and sweep API.

The golden values below were captured from the seed implementation (the
handwritten formulas in training/step_time.py, network/collectives.py,
storage/*.py before the cost-layer refactor) and are asserted with **exact**
float equality: the cost layer's scalar path must be bit-identical to the
formulas it replaced.
"""

import math
import time

import numpy as np
import pytest

from repro.apps.extreme_scale import EXTREME_SCALE_APPS
from repro.cost import (
    AnalyticCostModel,
    ConvergenceCostModel,
    CostBreakdown,
    DataParallelCrossoverModel,
    compose,
    crossover_nodes,
    crossover_sweep,
    kernels,
    step_cost_model,
    sweep,
    sweep_scalar,
)
from repro.errors import CapacityError, ConfigurationError
from repro.machine.gpu import NVIDIA_V100
from repro.machine.spec import SUMMIT
from repro.models.catalog import resnet50
from repro.network.collectives import (
    AllreduceAlgorithm,
    allreduce_time,
    paper_allreduce_estimate,
    ring_allreduce_time,
)
from repro.storage.checkpoint import CheckpointPlan
from repro.storage.io_model import read_requirement
from repro.training.convergence import RESNET50_CONVERGENCE
from repro.training.step_time import step_breakdown

INJECTION = SUMMIT.interconnect

# -- golden values captured from the seed implementation -------------------------

GOLDEN_STEP = {
    ("kurth", 1): dict(
        compute=0.5859613428280773, comm=0.002913666666666667, comm_exposed=0.0,
        io=0.056, io_exposed=0.0, mp_exchange=0.0,
        straggler=0.046587897146061714, samples=12, total=0.632549239974139),
    ("kurth", 4560): dict(
        compute=0.5859613428280773, comm=0.01900613684210526, comm_exposed=0.0,
        io=0.056, io_exposed=0.0, mp_exchange=0.0,
        straggler=0.11124781608356993, samples=54720, total=0.6972091589116473),
    ("yang", 1): dict(
        compute=0.009990243902439024, comm=0.0, comm_exposed=0.0,
        io=0.0, io_exposed=0.0, mp_exchange=0.0002737666666666667,
        straggler=0.0005673514876602853, samples=2048,
        total=0.010831362056765976),
    ("yang", 4584): dict(
        compute=0.009990243902439024, comm=0.002254, comm_exposed=0.0,
        io=0.0, io_exposed=0.0, mp_exchange=0.0002737666666666667,
        straggler=0.0013551336339908534, samples=9388032,
        total=0.011619144203096543),
    ("laanait", 1): dict(
        compute=0.365296803652968, comm=0.014673666666666668, comm_exposed=0.0,
        io=0.002, io_exposed=0.0, mp_exchange=0.0,
        straggler=0.008298163168547267, samples=6, total=0.3735949668215153),
    ("laanait", 4600): dict(
        compute=0.365296803652968, comm=0.05906401449275362, comm_exposed=0.0,
        io=0.002, io_exposed=0.0, mp_exchange=0.0,
        straggler=0.01982375407513185, samples=27600,
        total=0.3851205577280999),
    ("khan", 8): dict(
        compute=0.004266666666666667, comm=0.009527666666666667,
        comm_exposed=0.009527666666666667, io=0.000512, io_exposed=0.0,
        mp_exchange=0.0, straggler=0.0008310451399389981, samples=768,
        total=0.014625378473272332),
    ("khan", 1024): dict(
        compute=0.004266666666666667, comm=0.012472479166666666,
        comm_exposed=0.012472479166666666, io=0.000512, io_exposed=0.0,
        mp_exchange=0.0, straggler=0.0012474996895240694, samples=98304,
        total=0.017986645522857402),
    ("blanchard", 1): dict(
        compute=0.27679453924914676, comm=0.014673666666666668,
        comm_exposed=0.0, io=0.0033408, io_exposed=0.0, mp_exchange=0.0,
        straggler=0.007859657639635148, samples=1440,
        total=0.2846541968887819),
    ("blanchard", 4032): dict(
        compute=0.27679453924914676, comm=0.05792693650793651,
        comm_exposed=0.04062727780486484, io=0.16837632,
        io_exposed=0.07149823126279864, mp_exchange=0.0,
        straggler=0.01865480156073221, samples=5806080,
        total=0.40757484987754244),
}

#: (p, golden) for BERT-large's 1.4 GB gradient over Summit's injection link.
GOLDEN_ALLREDUCE = {
    2: dict(ring=0.056002, recursive_doubling=0.056001, binomial_tree=0.112002,
            best=0.056001),
    48: dict(ring=0.10976066666666666, recursive_doubling=0.392007,
             binomial_tree=0.672012, best=0.10976066666666666),
    4608: dict(ring=0.12118969444444444, recursive_doubling=0.784014,
               binomial_tree=1.456026, best=0.12118969444444444),
}

BERT_GRADIENT_BYTES = 1.4e9


def _app_cost_model(key):
    app = EXTREME_SCALE_APPS[key]
    return step_cost_model(
        app.model_factory(), SUMMIT, app.plan, data_source=app.data_source,
    )


class TestGoldenStepRegression:
    @pytest.mark.parametrize("key,n_nodes", sorted(GOLDEN_STEP))
    def test_scalar_evaluate_is_bit_identical_to_seed(self, key, n_nodes):
        bd = _app_cost_model(key).evaluate(n_nodes=n_nodes)
        golden = GOLDEN_STEP[(key, n_nodes)]
        for term, expected in golden.items():
            if term == "total":
                continue
            assert bd[term] == expected, f"{key}@{n_nodes}: {term}"
        assert bd.total == golden["total"]

    @pytest.mark.parametrize("key,n_nodes", sorted(GOLDEN_STEP))
    def test_step_breakdown_matches_cost_layer(self, key, n_nodes):
        app = EXTREME_SCALE_APPS[key]
        sb = step_breakdown(
            app.model_factory(), SUMMIT, n_nodes, app.plan,
            data_source=app.data_source,
        )
        bd = _app_cost_model(key).evaluate(n_nodes=n_nodes)
        assert dict(sb) == dict(bd)
        assert sb.total == bd.total
        assert type(sb["samples"]) is type(bd["samples"])


class TestGoldenCollectives:
    @pytest.mark.parametrize("p", sorted(GOLDEN_ALLREDUCE))
    def test_algorithms(self, p):
        golden = GOLDEN_ALLREDUCE[p]
        for name in ("ring", "recursive_doubling", "binomial_tree"):
            got = allreduce_time(
                p, BERT_GRADIENT_BYTES, INJECTION,
                AllreduceAlgorithm(name),
            )
            assert got == golden[name], f"{name}@{p}"
        assert allreduce_time(
            p, BERT_GRADIENT_BYTES, INJECTION, None
        ) == golden["best"]

    @pytest.mark.parametrize("p", sorted(GOLDEN_ALLREDUCE))
    def test_kernels_match_linkspec_adapter(self, p):
        lat, bw = INJECTION.latency, INJECTION.total_bandwidth
        for name in ("ring", "recursive_doubling", "binomial_tree"):
            assert kernels.allreduce_time(
                p, BERT_GRADIENT_BYTES, lat, bw, name
            ) == GOLDEN_ALLREDUCE[p][name]
        assert kernels.best_allreduce_time(
            p, BERT_GRADIENT_BYTES, lat, bw
        ) == GOLDEN_ALLREDUCE[p]["best"]

    def test_paper_estimates(self):
        assert paper_allreduce_estimate(102.4e6, INJECTION) == 0.008192
        assert paper_allreduce_estimate(1.4e9, INJECTION) == 0.112

    def test_algorithmic_bandwidth(self):
        assert BERT_GRADIENT_BYTES / ring_allreduce_time(
            4608, BERT_GRADIENT_BYTES, INJECTION
        ) == 11552137386.085955


class TestGoldenStorageModels:
    def test_io_requirement_model_matches_seed(self):
        model = resnet50()
        samples_per_s = model.samples_per_second(NVIDIA_V100)
        n_devices = 4608 * 6
        seed = read_requirement(samples_per_s, model.bytes_per_sample, n_devices)
        assert seed.required_bandwidth == 19982769230769.23
        assert seed.per_device_bandwidth == 722756410.2564102

    def test_checkpoint_goldens(self):
        plan = CheckpointPlan(
            state_bytes_per_node=30e9, n_nodes=4600,
            node_mtbf_seconds=5 * 365 * 24 * 3600.0,
        )
        write_time = plan.write_time_nvme(SUMMIT.nvme)
        assert write_time == 14.285714285714286
        assert plan.optimal_interval(write_time) == 989.6357319678679
        assert plan.overhead_fraction(write_time) == 0.029287409010441898


class TestGoldenAnalysisModels:
    def test_convergence_matches_seed(self):
        seed = RESNET50_CONVERGENCE.samples_to_target(32768, "lars")
        bd = ConvergenceCostModel().evaluate(
            batch=32768, min_samples=RESNET50_CONVERGENCE.min_samples,
            critical_batch=RESNET50_CONVERGENCE.critical_batch("lars"),
        )
        assert bd["samples_to_target"] == seed
        assert bd["steps_to_target"] == seed / 32768


class TestCostBreakdown:
    def _bd(self, **kwargs):
        defaults = dict(
            model="demo", terms={"a": 1.0, "b": 2.0}, critical=("a", "b"))
        defaults.update(kwargs)
        return CostBreakdown(**defaults)

    def test_mapping_protocol(self):
        bd = self._bd()
        assert bd["a"] == 1.0
        assert set(bd) == {"a", "b"}
        assert len(bd) == 2
        assert dict(bd) == {"a": 1.0, "b": 2.0}

    def test_total_and_fraction(self):
        bd = self._bd()
        assert bd.total == 3.0
        assert bd.fraction("b") == 2.0 / 3.0

    def test_total_accumulates_in_critical_order(self):
        bd = CostBreakdown(
            model="demo", terms={"x": 0.1, "y": 0.2, "z": 0.3},
            critical=("z", "x"))
        assert bd.total == 0.3 + 0.1

    def test_empty_terms_rejected(self):
        with pytest.raises(ConfigurationError):
            CostBreakdown(model="demo", terms={})

    def test_unknown_critical_rejected(self):
        with pytest.raises(ConfigurationError):
            self._bd(critical=("a", "nope"))

    def test_at_picks_grid_point(self):
        bd = CostBreakdown(
            model="demo",
            terms={"a": np.array([1.0, 2.0]), "b": 10.0},
            critical=("a", "b"))
        assert bd.shape == (2,)
        point = bd.at(1)
        assert point.shape == ()
        assert point["a"] == 2.0 and point["b"] == 10.0
        assert point.total == 12.0


class _Double(AnalyticCostModel):
    name = "double"
    requires = ("x",)
    critical = ("doubled",)

    def _terms(self, c):
        return {"doubled": 2 * c["x"]}


class _PlusOne(AnalyticCostModel):
    name = "plus_one"
    requires = ("doubled",)
    critical = ("plus_one",)

    def _terms(self, c):
        return {"plus_one": c["doubled"] + 1}


class TestCompositionAndProtocol:
    def test_dataflow_composition(self):
        combined = compose(_Double(), _PlusOne())
        bd = combined.evaluate(x=5)
        assert bd["doubled"] == 10 and bd["plus_one"] == 11

    def test_compose_with_defaults_and_critical(self):
        model = compose(_Double(), _PlusOne(), name="pipeline",
                        critical=("plus_one",), defaults={"x": 3})
        bd = model.evaluate()
        assert model.name == "pipeline"
        assert bd.total == 7

    def test_missing_config_raises(self):
        with pytest.raises(ConfigurationError, match="missing config"):
            _Double().evaluate()

    def test_duplicate_terms_rejected(self):
        from repro.telemetry import Telemetry

        with pytest.raises(ConfigurationError, match="twice"):
            compose(_Double(), _Double()).evaluate(x=1)
        with pytest.raises(ConfigurationError, match="twice"):
            compose(_Double(), _Double()).evaluate_batch_staged(
                Telemetry(), x=1)

    def test_evaluate_rejects_arrays(self):
        with pytest.raises(ConfigurationError, match="evaluate_batch"):
            _Double().evaluate(x=np.array([1.0, 2.0]))

    def test_evaluate_batch_promotes_sequences(self):
        bd = _Double().evaluate_batch(x=[1.0, 2.0])
        assert np.array_equal(bd["doubled"], np.array([2.0, 4.0]))

    def test_staged_batch_adds_only_one_span_per_stage(self):
        from repro.telemetry import Telemetry

        model = compose(_Double(), _PlusOne())
        telemetry = Telemetry()
        staged = model.evaluate_batch_staged(telemetry, x=[1.0, 2.0])
        plain = model.evaluate_batch(x=[1.0, 2.0])
        assert staged.terms.keys() == plain.terms.keys()
        for term in plain.terms:
            assert np.array_equal(staged[term], plain[term])
        assert [s["name"] for s in telemetry.finished_spans()] == [
            "double", "plus_one",
        ]


class TestSweepApi:
    def _result(self):
        return sweep(
            DataParallelCrossoverModel(),
            {"message_bytes": [1e8, 1.4e9], "n_ranks": [2, 48, 4608]},
            latency=1e-6, bandwidth=25e9, compute_time=0.05,
        )

    def test_shape_and_axes(self):
        r = self._result()
        assert r.shape == (2, 3)
        assert r.axis_names == ("message_bytes", "n_ranks")

    def test_point_and_at(self):
        r = self._result()
        assert r.axes["message_bytes"][1] == 1.4e9
        assert r.axes["n_ranks"][2] == 4608
        assert r.at(1, 2)["comm"] == GOLDEN_ALLREDUCE[4608]["ring"]

    def test_crossover_along(self):
        r = self._result()
        cross = r.crossover_along("n_ranks", "compute", "comm")
        assert cross.shape == (2,)
        assert math.isnan(cross[0])  # 100 MB never beats 50 ms compute
        assert cross[1] == 2.0  # 1.4 GB is comm-bound everywhere

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(DataParallelCrossoverModel(), {})
        with pytest.raises(ConfigurationError):
            sweep(DataParallelCrossoverModel(), {"n_ranks": []},
                  latency=0.0, bandwidth=1.0, compute_time=1.0,
                  message_bytes=1.0)

    def test_sweep_scalar_matches_sweep(self):
        grid = {"message_bytes": [1e8, 1.4e9], "n_ranks": [2, 48, 4608]}
        fixed = dict(latency=1e-6, bandwidth=25e9, compute_time=0.05)
        fast = sweep(DataParallelCrossoverModel(), grid, **fixed)
        slow = sweep_scalar(DataParallelCrossoverModel(), grid, **fixed)
        for term in fast.breakdown:
            assert np.array_equal(
                np.asarray(fast.term(term), dtype=float), slow.term(term))


class TestCrossoverHelpers:
    def test_crossover_sweep_scalar_and_axis_mix(self):
        r = crossover_sweep(
            np.array([102.4e6, 1.4e9]), 4608, 25e9,
            latency=1e-6, compute_time=0.05,
        )
        assert r.axis_names == ("message_bytes",)
        paper = r.term("paper_estimate")
        assert paper[0] == 0.008192 and paper[1] == 0.112

    def test_crossover_nodes(self):
        r = crossover_sweep(
            1.4e9, np.array([2, 48, 4608]), 25e9,
            latency=1e-6, compute_time=0.05,
        )
        assert crossover_nodes(r) == 2.0

    @pytest.mark.parametrize("step", [2, 512])
    def test_crossover_surface_reproduces_paper_estimates(self, step):
        """Section VI-B read off the sweep surface: 102.4 MB -> ~8 ms and
        1.4 GB -> ~110 ms at Summit's injection bandwidth. The full ring
        adds latency terms, so at the widest count it is slower than the
        paper's closed form, converging for the large message. At a 50 ms
        step ResNet-50 never crosses over; BERT-large always does."""
        result = crossover_sweep(
            np.array([102.4e6, 1.4e9]),
            np.arange(2, SUMMIT.node_count + 1, step),
            SUMMIT.injection_bandwidth,
            latency=SUMMIT.injection_latency, compute_time=0.05,
        )
        paper = result.term("paper_estimate")[:, 0]
        assert paper[0] == pytest.approx(8e-3, rel=0.05)
        assert paper[1] == pytest.approx(110e-3, rel=0.05)
        ring_full = result.term("comm")[:, -1]
        assert np.all(ring_full > paper)
        assert ring_full[1] == pytest.approx(paper[1], rel=0.15)
        cross = crossover_nodes(result)
        assert np.isnan(cross[0])
        assert cross[1] == result.axes["n_ranks"][0]


class TestSweepSpeed:
    def test_vectorised_sweep_beats_scalar_loop(self):
        """On the 160-point crossover grid, every point evaluating all three
        allreduce algorithms, one vectorised pass is bit-identical to the
        scalar loop and at least 2x faster (best of 3 runs each)."""
        model = DataParallelCrossoverModel()
        grid = {
            "message_bytes": np.linspace(10e6, 2e9, 10),
            "n_ranks": np.array([2, 64, 1024, SUMMIT.node_count]),
            "bandwidth": np.linspace(12.5e9, 50e9, 4),
        }
        fixed = dict(latency=SUMMIT.injection_latency, compute_time=0.05,
                     allreduce_algorithm="best")

        def best_of_3(run):
            seconds = []
            for _ in range(3):
                t0 = time.perf_counter()
                result = run(model, grid, **fixed)
                seconds.append(time.perf_counter() - t0)
            return result, min(seconds)

        fast, t_vec = best_of_3(sweep)
        slow, t_scalar = best_of_3(sweep_scalar)
        assert set(fast.breakdown) == set(slow.breakdown)
        for term in fast.breakdown:
            assert np.array_equal(
                np.asarray(fast.term(term), dtype=float), slow.term(term)
            ), term
        assert np.array_equal(np.asarray(fast.total(), dtype=float), slow.total())
        assert t_scalar / t_vec >= 2.0, (
            f"vectorised sweep only {t_scalar / t_vec:.1f}x faster than "
            f"the scalar loop (need >= 2x)"
        )


class TestStepModelErrors:
    def test_too_many_nodes_is_capacity_error(self):
        with pytest.raises(CapacityError):
            _app_cost_model("kurth").evaluate(n_nodes=5000)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            _app_cost_model("kurth").evaluate(n_nodes=0)

    def test_array_capacity_check_uses_max(self):
        with pytest.raises(CapacityError):
            _app_cost_model("kurth").evaluate_batch(
                n_nodes=np.array([1, 5000]))

    def test_vectorized_matches_scalar_for_apps(self):
        nodes = np.array([1, 16, 256, 4096])
        model = _app_cost_model("blanchard")
        fast = sweep(model, {"n_nodes": nodes})
        slow = sweep_scalar(model, {"n_nodes": nodes})
        for term in fast.breakdown:
            assert np.array_equal(
                np.asarray(fast.term(term), dtype=float), slow.term(term))
