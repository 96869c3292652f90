"""Package-wide contracts: exported names, a numpy-only import, and one integer, one real
and one array rule for every argument."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scamo_lab

EXPORTS = {
    # core
    "RUN_FIELDS", "RunRecord", "RunLogError", "RunTable", "load_runs",
    "CodeUsageHistogram", "CodebookMetrics", "codebook_metrics",
    # flops
    "ModelConfig", "FlopsBreakdown", "flops_per_token_exact", "params_non_embedding",
    "flops_approx",
    # fsq
    "LEVEL_PRESETS", "FsqLevels", "SteForward", "codebook_size", "fsq_decode_index",
    "fsq_dequantize", "fsq_encode_index", "fsq_quantize", "fsq_ste_forward",
    # planner
    "CONSISTENCY_TOLERANCE_LOG10", "FITS_PRESETS", "REFERENCE_PRESETS", "ReferenceSelection",
    "BudgetPlan", "VocabForModel", "nearest_power_of_two", "plan_budget",
    "consistency_report", "vocab_for_model",
    # scaling
    "PowerLawFit", "LogLawFit", "ScalingFits", "FrontierPoint", "pareto_frontier",
    "fit_power_law", "fit_log_law", "fit_all",
    # seqmodel
    "PrefixMask", "TokenProbRecord", "build_prefix_mask", "ce_loss", "normalized_loss",
    # synth
    "CGridSpec", "SynthSpec", "synth_runs", "synth_latents",
    # vq
    "VqAssignment", "VqCodebook", "VqResetResult", "VqTrainParams", "vq_assign",
    "vq_ema_update", "vq_quantize", "vq_reset",
}


def test_exported_names_are_pinned_and_resolve():
    assert len(scamo_lab.__all__) == len(set(scamo_lab.__all__))
    assert set(scamo_lab.__all__) == EXPORTS
    for name in scamo_lab.__all__:
        assert getattr(scamo_lab, name) is not None


def test_every_exported_name_is_reached():
    """Each name in __all__ is used by the CLI, an acceptance gate or the benchmark, or by
    package code beyond its __all__ entry and its definition."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "scamo_lab"
    users = [package / "cli.py", root / "tests" / "test_acceptance.py", *root.glob("bench/*.py")]
    outside = "".join(path.read_text(encoding="utf-8") for path in users)
    inside = "".join(re.sub(r"(?m)^__all__ = \[[^]]*\]", "", path.read_text(encoding="utf-8"))
                     for path in package.glob("*.py"))
    unreached = []
    for name in scamo_lab.__all__:
        uses = len(re.findall(rf"\b{name}\b", inside))
        definitions = len(re.findall(rf"(?m)^(?:def |class )?{name}\b", inside))
        if not re.search(rf"\b{name}\b", outside) and uses <= definitions:
            unreached.append(name)
    assert unreached == []


def test_readme_layout_names_only_modules_and_exports():
    """Each backticked name in README's "Library layout" table is a scamo_lab module or an
    exported name, so a deleted name cannot stay listed there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.search(r"(?m)^## Library layout\n\n((?:\|.*\n)+)", readme).group(1)
    names = re.findall(r"`([^`]+)`", table)
    modules = {f"scamo_lab.{path.stem}" for path in Path(scamo_lab.__file__).parent.glob("*.py")}
    assert names and [n for n in names if n not in modules | set(scamo_lab.__all__)] == []


def test_every_private_module_name_is_reached():
    """Each module-level _name (a def, class or assignment) in the package is referenced in
    src/ beyond its definition, so a deleted caller leaves no dead helper behind."""
    package = Path(__file__).resolve().parents[1] / "src" / "scamo_lab"
    sources = {path: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    everything = "".join(sources.values())
    unreached = []
    for path, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            for name in names:
                if (name.startswith("_") and not name.startswith("__")
                        and len(re.findall(rf"\b{name}\b", everything)) < 2):
                    unreached.append(f"{path.name}:{name}")
    assert unreached == []


def test_import_leaves_scipy_out():
    code = "import sys, scamo_lab; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


SHAPE = dict(n_layers=2, n_heads=2, d_model=8, n_ctx=16)
PAPER_FITS = scamo_lab.FITS_PRESETS["scamo-paper"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: scamo_lab.ModelConfig(**{**SHAPE, "n_vocab": 32, "ff_ratio": True}),
        lambda: scamo_lab.RunRecord("r", **SHAPE, vocab_size=32, tokens_trained=True,
                                    flops=None, normalized_loss=0.0),
        lambda: scamo_lab.FsqLevels((8, True)),
        lambda: scamo_lab.ReferenceSelection(n_nv=3e9, vocab_size=True, d_tokens=1e7),
        lambda: scamo_lab.nearest_power_of_two(True),
        lambda: scamo_lab.plan_budget(1e18, PAPER_FITS, True),
        lambda: scamo_lab.vocab_for_model(3e9, PAPER_FITS.nv_vs_nnv, True),
        lambda: scamo_lab.build_prefix_mask(4, True),
        lambda: scamo_lab.CGridSpec(14.0, 15.0, True),
        lambda: scamo_lab.SynthSpec(PAPER_FITS, scamo_lab.CGridSpec(14.0, 15.0, 2),
                                    runs_per_budget=True),
        lambda: scamo_lab.SynthSpec(PAPER_FITS, scamo_lab.CGridSpec(14.0, 15.0, 2), seed=True),
        lambda: scamo_lab.synth_latents("gaussian_mixture", True, 2),
        lambda: scamo_lab.synth_latents("gaussian_mixture", 10, True),
        lambda: scamo_lab.synth_latents("gaussian_mixture", 10, 2, n_components=True),
        lambda: scamo_lab.VqTrainParams(rng_seed=True),
    ],
    ids=["ff_ratio", "tokens_trained", "level", "vocab_size", "nearest_power_of_two",
         "plan_budget", "vocab_for_model", "t_motion", "n_points", "runs_per_budget", "seed",
         "n", "dim", "n_components", "rng_seed"],
)
def test_true_is_not_an_integer(build):
    with pytest.raises(ValueError, match="integer.*, got True$"):
        build()


INT64_MAX = 2**63 - 1
UNIT_SHAPE = dict(n_layers=1, n_heads=1, d_model=1, n_ctx=1, n_vocab=1, ff_ratio=1)


def _bound_message(name):
    return f"^{name} must be an integer in \\[1, {INT64_MAX}\\], got {2**63}$"


@pytest.mark.parametrize("field", UNIT_SHAPE)
def test_model_config_counts_stop_at_int64(field):
    def build(v):  # n_heads must divide d_model
        return scamo_lab.ModelConfig(**{**UNIT_SHAPE, "d_model": v if field == "n_heads" else 1,
                                        field: v})

    assert getattr(build(INT64_MAX), field) == INT64_MAX
    with pytest.raises(ValueError, match=_bound_message(field)):
        build(2**63)


def test_tokens_trained_stops_at_int64():
    largest = dict(n_layers=INT64_MAX, n_heads=INT64_MAX, d_model=INT64_MAX, n_ctx=INT64_MAX,
                   vocab_size=INT64_MAX, tokens_trained=INT64_MAX)
    run = scamo_lab.RunRecord("r", **largest, flops=None, normalized_loss=0.0)
    assert run.flops < 1e97  # every count at its bound still fills a finite flops
    with pytest.raises(ValueError, match=_bound_message("tokens_trained")):
        scamo_lab.RunRecord("r", **SHAPE, vocab_size=32, tokens_trained=2**63, flops=None,
                            normalized_loss=0.0)


GRID = scamo_lab.CGridSpec(14.0, 15.0, 2)


def a_run(flops=1e15, loss=0.0):
    return scamo_lab.RunRecord("r", **SHAPE, vocab_size=32, tokens_trained=10, flops=flops,
                               normalized_loss=loss)


# Every public real-valued argument: (id, name in the error, kind, call with a value).
REALS = [
    ("flops_approx.n_nv", "n_nv", "positive", lambda v: scamo_lab.flops_approx(v, 1.0, 1.0)),
    ("flops_approx.n_v", "n_v", "non-negative", lambda v: scamo_lab.flops_approx(1.0, v, 1.0)),
    ("flops_approx.d_tokens", "d_tokens", "positive",
     lambda v: scamo_lab.flops_approx(1.0, 1.0, v)),
    ("RunRecord.flops", "flops", "positive", lambda v: a_run(flops=v)),
    ("RunRecord.normalized_loss", "normalized_loss", "finite", lambda v: a_run(loss=v)),
    ("PowerLawFit.log10_coef", "log10_coef", "finite", lambda v: scamo_lab.PowerLawFit(v, 1.0)),
    ("PowerLawFit.exponent", "exponent", "finite", lambda v: scamo_lab.PowerLawFit(0.0, v)),
    ("PowerLawFit.r2", "r2", "finite", lambda v: scamo_lab.PowerLawFit(0.0, 1.0, v)),
    ("PowerLawFit.evaluate", "x", "positive",
     lambda v: scamo_lab.PowerLawFit(0.0, 1.0).evaluate(v)),
    ("LogLawFit.slope", "slope", "finite", lambda v: scamo_lab.LogLawFit(v, 1.0)),
    ("LogLawFit.intercept", "intercept", "finite", lambda v: scamo_lab.LogLawFit(1.0, v)),
    ("LogLawFit.r2", "r2", "finite", lambda v: scamo_lab.LogLawFit(1.0, 1.0, v)),
    ("LogLawFit.evaluate", "c", "positive", lambda v: scamo_lab.LogLawFit(1.0, 1.0).evaluate(v)),
    ("pareto_frontier", "bin_width_log10", "positive",
     lambda v: scamo_lab.pareto_frontier([a_run()], bin_width_log10=v)),
    ("ReferenceSelection.n_nv", "n_nv", "positive",
     lambda v: scamo_lab.ReferenceSelection(n_nv=v, vocab_size=8, d_tokens=1e7)),
    ("ReferenceSelection.d_tokens", "d_tokens", "positive",
     lambda v: scamo_lab.ReferenceSelection(n_nv=3e9, vocab_size=8, d_tokens=v)),
    ("plan_budget", "c_flops", "positive", lambda v: scamo_lab.plan_budget(v, PAPER_FITS, 8)),
    ("CGridSpec.min_log10", "min_log10", "finite", lambda v: scamo_lab.CGridSpec(v, 15.0, 2)),
    ("CGridSpec.max_log10", "max_log10", "finite", lambda v: scamo_lab.CGridSpec(14.0, v, 2)),
    ("SynthSpec", "noise_sigma_log10", "non-negative",
     lambda v: scamo_lab.SynthSpec(PAPER_FITS, GRID, noise_sigma_log10=v)),
    ("VqTrainParams.ema_decay", "ema_decay", "positive",
     lambda v: scamo_lab.VqTrainParams(ema_decay=v)),
    ("VqTrainParams.reset_threshold", "reset_threshold", "non-negative",
     lambda v: scamo_lab.VqTrainParams(reset_threshold=v)),
    ("TokenProbRecord.model_logp", "model_logp", "non-positive",
     lambda v: scamo_lab.TokenProbRecord(v, 0.0)),
    ("TokenProbRecord.baseline_logp", "baseline_logp", "non-positive",
     lambda v: scamo_lab.TokenProbRecord(0.0, v)),
]
# nan breaks every kind; the range kinds also get a numpy scalar just outside the range,
# which the error prints as a plain float
OUT_OF_RANGE = {"finite": [], "positive": [np.float64(0.0)], "non-negative": [np.float64(-1.0)],
                "non-positive": [np.float64(1.0)]}


def _real_cases():
    for entry, name, kind, build in REALS:
        rule = "finite" if kind == "finite" else f"{kind} and finite"
        for value in [float("nan"), *OUT_OF_RANGE[kind]]:
            message = f"{name} must be {rule}, got {float(value)!r}"
            yield pytest.param(build, value, message, id=f"{entry}={value}")
        # an int past float range counts as inf; a bool or a string is no number at all
        yield pytest.param(build, 10**400, f"{name} must be {rule}, got inf", id=f"{entry}=10**400")
        for value in [True, "1"]:
            message = f"{name} must be a number, got {value!r}"
            yield pytest.param(build, value, message, id=f"{entry}={value!r}")


@pytest.mark.parametrize("build, value, message", _real_cases())
def test_one_rule_for_reals(build, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


CODEBOOK = scamo_lab.VqCodebook.fresh(np.zeros((3, 2)))
PARAMS = scamo_lab.VqTrainParams()
LEVELS = (8, 5)

# Every public array argument: (id, name in the error, rule, required shape, a good value,
# call with a value). The rule is a real kind, or the range of an integer argument.
ARRAYS = [
    ("fsq_quantize", "latents", "finite", "(n, 2)", np.zeros((3, 2)),
     lambda v: scamo_lab.fsq_quantize(v, LEVELS)),
    ("fsq_ste_forward", "latents", "finite", "(n, 2)", np.zeros((3, 2)),
     lambda v: scamo_lab.fsq_ste_forward(v, LEVELS)),
    ("VqCodebook.entries", "entries", "finite", "(n, n)", np.zeros((3, 2)),
     lambda v: scamo_lab.VqCodebook(v, np.ones(3), np.zeros((3, 2)))),
    ("VqCodebook.usage_counts", "usage_counts", "non-negative", "(3,)", np.ones(3),
     lambda v: scamo_lab.VqCodebook(np.zeros((3, 2)), v, np.zeros((3, 2)))),
    ("VqCodebook.ema_sums", "ema_sums", "finite", "(3, 2)", np.zeros((3, 2)),
     lambda v: scamo_lab.VqCodebook(np.zeros((3, 2)), np.ones(3), v)),
    ("VqCodebook.fresh", "entries", "finite", "(n, n)", np.zeros((3, 2)),
     scamo_lab.VqCodebook.fresh),
    ("vq_assign", "batch", "finite", "(n, 2)", np.zeros((4, 2)),
     lambda v: scamo_lab.vq_assign(v, CODEBOOK)),
    ("vq_quantize", "latent", "finite", "(2,)", np.zeros(2),
     lambda v: scamo_lab.vq_quantize(v, CODEBOOK)),
    ("vq_ema_update", "batch", "finite", "(n, 2)", np.zeros((4, 2)),
     lambda v: scamo_lab.vq_ema_update(v, CODEBOOK, PARAMS)),
    ("vq_reset", "batch", "finite", "(n, 2)", np.zeros((4, 2)),
     lambda v: scamo_lab.vq_reset(CODEBOOK, v, PARAMS)),
    ("fit_power_law.xs", "xs", "positive", "(n,)", np.ones(3),
     lambda v: scamo_lab.fit_power_law(v, np.ones(3))),
    ("fit_power_law.ys", "ys", "positive", "(3,)", np.ones(3),
     lambda v: scamo_lab.fit_power_law([1.0, 2.0, 3.0], v)),
    ("fit_log_law.cs", "cs", "positive", "(n,)", np.ones(3),
     lambda v: scamo_lab.fit_log_law(v, np.ones(3))),
    ("fit_log_law.losses", "losses", "finite", "(3,)", np.ones(3),
     lambda v: scamo_lab.fit_log_law([1.0, 2.0, 3.0], v)),
    ("synth_latents", "means", "finite", "(n, 2)", np.zeros((3, 2)),
     lambda v: scamo_lab.synth_latents("gaussian_mixture", 4, 2, means=v)),
    ("fsq_dequantize", "codes", "in [1, (8, 5)]", "(n, 2)", np.ones((3, 2), dtype=np.int64),
     lambda v: scamo_lab.fsq_dequantize(v, LEVELS)),
    ("fsq_encode_index", "codes", "in [1, (8, 5)]", "(n, 2)", np.ones((3, 2), dtype=np.int64),
     lambda v: scamo_lab.fsq_encode_index(v, LEVELS)),
    ("fsq_decode_index", "index", "in [0, 39]", "(n,)", np.arange(3),
     lambda v: scamo_lab.fsq_decode_index(v, LEVELS)),
    ("CodeUsageHistogram", "counts", ">= 0", "(n,)", np.ones(3, dtype=np.int64),
     scamo_lab.CodeUsageHistogram),
]


def _with_first(array, *values):
    out = array.copy()
    out.flat[:len(values)] = values
    return out


def _ragged(array):
    """array as nested lists, its last item nested one level deeper than the others."""
    out = array.tolist()
    out[-1] = [out[-1]]
    return out


def _array_cases():
    for entry, name, rule, shape, good, build in ARRAYS:
        integer = rule not in OUT_OF_RANGE
        kind = "must be integers" if integer else "must be real numbers"
        bad = good[..., None]
        cases = {"empty": (good[:0], f"must have shape {shape}, got {good[:0].shape}"),
                 "[{}]": ([{}], kind), "ragged": (_ragged(good), kind),
                 # numpy would read the bool as 1 in an int or float array
                 "bool in a list": (_with_first(good.astype(object), True).tolist(), kind),
                 "shape": (bad, f"must have shape {shape}, got {bad.shape}")}
        if integer:
            cases["float"] = (good.astype(np.float64), "must be integers")
            cases["bool"] = (good.astype(bool), "must be integers")
            cases["range"] = (_with_first(good, -1), f"must be integers {rule}")
            # Python ints past int64: numpy holds them as objects, or as float64 beside a negative
            cases["past int64"] = (_with_first(good.astype(object), 2**64).tolist(),
                                   f"must be integers {rule}")
            cases["past int64 beside a negative"] = (
                _with_first(good.astype(object), -1, 2**63).tolist(), f"must be integers {rule}")
        else:
            words = "finite" if rule == "finite" else f"{rule} and finite"
            for value in [float("nan"), *OUT_OF_RANGE[rule]]:
                cases[repr(float(value))] = (_with_first(good, value), f"must be {words}")
            for dtype in (bool, complex, str):
                cases[dtype.__name__] = (good.astype(dtype), "must be real numbers")
        for case, (value, message) in cases.items():
            yield pytest.param(build, value, f"{name} {message}", id=f"{entry}-{case}")


@pytest.mark.parametrize("build, value, message", _array_cases())
def test_one_rule_for_arrays(build, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)


def test_array_rules_keep_an_array_of_their_dtype():
    from scamo_lab.flops import _check_int_array, _check_real_array

    reals, ints = np.ones((3, 2)), np.ones((3, 2), dtype=np.int64)
    assert _check_real_array("z", reals, (None, 2)) is reals
    assert _check_int_array("q", ints, (None, 2), 1) is ints
