"""Command-line contract: subcommands, exit codes, run artifacts."""

import json
import os
import platform
import resource
import sys

import numpy as np
import pytest

from structseg.checkpoint import read_blob
from structseg.cli import build_parser, main, resolve_config
from structseg.cutmix import drop_pairs, generate_boxes
from structseg.synthdata import save_pgm
from structseg.tensor import HEAP_KEEPS_FREED_BLOCKS, no_grad
from structseg.trainer import TrainConfig, Trainer, load_checkpoint
from structseg.verification import pair_reduction_report

TINY_CONFIG = {
    "height": 24, "width": 24, "num_classes": 3,
    "n_labeled": 4, "n_unlabeled": 6, "n_validation": 3,
    "model_widths": [6, 6], "num_boxes": 6, "num_active_boxes": 3,
    "pair_budget": 64, "epochs": 1,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def _rewrite_header(src, dst, edit):
    """Copy a checkpoint, applying ``edit(header, entries by name)`` to its
    JSON header line."""
    line, payload = src.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header, {e["name"]: e for e in header["tensors"]})
    dst.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def _narrow_first_layer(header, entries):
    """The config describes a net whose first layer is narrower than the
    stored tensors."""
    header["meta"]["config"]["model_widths"][0] = 5


# header edits that leave it parseable: (header, entries by name) -> None
HEADER_EDITS = {
    "missing-tensor": lambda h, e: h["tensors"].remove(e["student/conv0.kernel"]),
    "shape-vs-nbytes": lambda h, e: e["teacher/conv1.bias"].update(shape=[2]),
    "no-tensor-list": lambda h, e: h.pop("tensors"),
    "flat-kernel": lambda h, e: e["student/conv0.kernel"].update(shape=[3 * 3 * 3 * 6]),
    "config-widths": _narrow_first_layer,
    "config-net": lambda h, e: h["meta"]["config"].update(num_classes=4),
    "no-config": lambda h, e: h["meta"].pop("config"),
    "no-step": lambda h, e: h["meta"].pop("step"),
    "step-string": lambda h, e: h["meta"].update(step="abc"),
    "step-null": lambda h, e: h["meta"].update(step=None),
    "step-list": lambda h, e: h["meta"].update(step=[1]),
    "step-bool": lambda h, e: h["meta"].update(step=True),
    "step-float": lambda h, e: h["meta"].update(step=4.0),
    "ema-steps-negative": lambda h, e: h["meta"].update(ema_steps=-1),
}


def _add_parent_keys(header, entries):
    """The header as the previous format wrote it: the net's descriptor and
    the EMA decay beside the config that also holds them."""
    cfg = header["meta"]["config"]
    header["meta"]["descriptor"] = {"in_channels": 3, "kernel_size": cfg["kernel_size"],
                                    "widths": cfg["model_widths"] + [cfg["num_classes"]]}
    header["meta"]["ema_decay"] = cfg["ema_decay"]


def _train(tmp_path, tiny_config, out_name, *extra):
    out = tmp_path / out_name
    code = main(["train", "--config", str(tiny_config), "--out-dir", str(out), *extra])
    return code, out


class TestTrain:
    def test_happy_path_writes_run_artifacts(self, tmp_path, tiny_config):
        code, out = _train(tmp_path, tiny_config, "run1", "--seed", "7")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["seed"] == 7
        assert len(manifest["config_hash"]) == 64
        assert (out / "metrics.csv").exists()
        assert (out / "eval.csv").exists()
        assert (out / "checkpoint.bin").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "step,lr,l_x,l_c,l_sc,l_tot"
        assert len(lines) == 1 + TINY_CONFIG["epochs"] * TINY_CONFIG["n_labeled"]

    def test_manifest_records_environment(self, tmp_path, tiny_config):
        _, out = _train(tmp_path, tiny_config, "run-env")
        manifest = json.loads((out / "manifest.json").read_text())
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        assert env["cpu_count"] == os.cpu_count()
        assert env["heap_keeps_freed_blocks"] is HEAP_KEEPS_FREED_BLOCKS
        assert env["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == os.environ.get(
            "OPENBLAS_NUM_THREADS")
        assert set(env) == {"python", "numpy", "blas", "blas_thread_env",
                            "cpu_count", "heap_keeps_freed_blocks"}
        assert isinstance(manifest["wall_time_s"], float) and manifest["wall_time_s"] > 0
        peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
            2 ** 20 if sys.platform == "darwin" else 1024)
        assert 0 < manifest["peak_rss_mb"] <= peak_now
        # the hash covers the config alone, not the environment
        assert manifest["config_hash"] == TrainConfig.from_dict(
            manifest["config"]).config_hash()

    def test_zero_structured_weight_zeroes_csv_column(self, tmp_path, tiny_config):
        code, out = _train(tmp_path, tiny_config, "run2", "--structured-weight", "0")
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[4] == "0.0" for row in rows)

    def test_zero_epochs_is_evaluation_only(self, tmp_path, tiny_config):
        code, out = _train(tmp_path, tiny_config, "run3", "--epochs", "0", "--seed", "3")
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only, no parameter updates
        eval_rows = (out / "eval.csv").read_text().strip().splitlines()
        assert len(eval_rows) == 2
        # checkpoint holds untouched init weights: teacher == student
        net, ema_state, _ = load_checkpoint(out / "checkpoint.bin")
        for p, t in zip(net.params, ema_state.teacher_params):
            assert np.array_equal(p.data, t.data)

    def test_unknown_config_key_exits_2_naming_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "lambda_c": 20}))
        code = main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "lambda_c" in capsys.readouterr().err

    def test_determinism_bit_identical_metrics(self, tmp_path, tiny_config):
        _, out_a = _train(tmp_path, tiny_config, "runA", "--seed", "5")
        _, out_b = _train(tmp_path, tiny_config, "runB", "--seed", "5")
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "eval.csv").read_bytes() == (out_b / "eval.csv").read_bytes()
        ha = json.loads((out_a / "manifest.json").read_text())["config_hash"]
        hb = json.loads((out_b / "manifest.json").read_text())["config_hash"]
        assert ha == hb

    def test_override_beats_config_file(self, tmp_path, tiny_config):
        code, out = _train(tmp_path, tiny_config, "run4", "--epochs", "2")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_exits_3(self, tmp_path, tiny_config, capsys):
        # an absurd learning rate overflows the forward pass within a step
        code, _ = _train(tmp_path, tiny_config, "boom", "--lr0", "1e200")
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_manifest_peak_rss_is_null_without_resource(self, tmp_path, tiny_config,
                                                        monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", None)  # import resource fails
        _, out = _train(tmp_path, tiny_config, "run-no-resource")
        assert json.loads((out / "manifest.json").read_text())["peak_rss_mb"] is None

    def test_manifest_reproduces_run(self, tmp_path, tiny_config):
        _, out_a = _train(tmp_path, tiny_config, "runM1", "--seed", "9")
        out_b = tmp_path / "runM2"
        code = main(["train", "--config", str(out_a / "manifest.json"),
                     "--out-dir", str(out_b)])
        assert code == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


class TestEvaluate:
    def test_evaluate_checkpoint(self, tmp_path, tiny_config, capsys):
        _, out = _train(tmp_path, tiny_config, "run5", "--seed", "1")
        capsys.readouterr()  # drop the train command's output
        code = main(["evaluate", "--checkpoint", str(out / "checkpoint.bin")])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[0].startswith("step,variant,iou_0")
        assert len(printed[1].split(",")) == 2 + TINY_CONFIG["num_classes"] + 1

    def test_parent_format_header_prints_the_same_lines(self, tmp_path, tiny_config, capsys):
        """A header that still carries ``descriptor`` and ``ema_decay`` loads,
        and both headers print the header and last row of the run's eval.csv."""
        _, out = _train(tmp_path, tiny_config, "run", "--seed", "1")
        older = tmp_path / "older.bin"
        _rewrite_header(out / "checkpoint.bin", older, _add_parent_keys)
        printed = []
        for path in (out / "checkpoint.bin", older):
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", str(path)]) == 0
            printed.append(capsys.readouterr().out.splitlines())
        eval_csv = (out / "eval.csv").read_text().splitlines()
        assert printed[0] == printed[1] == [eval_csv[0], eval_csv[-1]]
        assert eval_csv[-1].startswith("4,ema,")


class TestAblate:
    def test_loss_grid_csv(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "abl"
        code = main(["ablate", "--config", str(tiny_config), "--grid", "loss",
                     "--seeds", "0,1,2", "--out-dir", str(out)])
        assert code == 0
        lines = (out / "ablation-loss.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] == ["sup", "sup+c", "sup+c+sc"]

    def test_ema_grid_csv(self, tmp_path, tiny_config):
        out = tmp_path / "abl-ema"
        code = main(["ablate", "--config", str(tiny_config), "--grid", "ema",
                     "--seeds", "0,1,2", "--out-dir", str(out), "--epochs", "0"])
        assert code == 0
        lines = (out / "ablation-ema.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        assert [l.split(",")[0] for l in lines[1:]] == ["X/X", "X/O", "O/X", "O/O"]

    def test_too_few_seeds_exits_2(self, tmp_path, tiny_config):
        code = main(["ablate", "--config", str(tiny_config), "--seeds", "0,1",
                     "--out-dir", str(tmp_path / "abl2")])
        assert code == 2


class TestGradcheck:
    def test_passes_and_names_all_losses(self, capsys):
        code = main(["gradcheck", "--seeds-count", "3"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("relaxed_ce_w1", "relaxed_ce_w3", "consistency", "structured_box"):
            assert name in out
        assert "PASS" in out

    def test_corrupted_backward_fails(self, capsys):
        code = main(["gradcheck", "--seeds-count", "2", "--corrupt-op", "softmax"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_structured_node_fails_its_three_legs(self, capsys):
        code = main(["gradcheck", "--seeds-count", "2", "--corrupt-op", "structured_box"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        assert sorted(line.split(":")[0] for line in lines if "FAIL" in line) == [
            "structured_box", "structured_exact", "structured_sampled"]

    @pytest.mark.parametrize("op,legs", [
        ("relaxed_ce", ["relaxed_ce_w1", "relaxed_ce_w3"]),
        ("consistency", ["consistency"]),
    ])
    def test_corrupted_loss_node_fails_its_legs(self, capsys, op, legs):
        code = main(["gradcheck", "--seeds-count", "2", "--corrupt-op", op])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        assert sorted(line.split(":")[0] for line in lines if "FAIL" in line) == legs

    def test_constant_loss_seed_passes(self, capsys):
        # every 3x3 label window of seed 2984 holds every class, so the
        # window-3 loss is constant and both gradients are rounding noise
        assert main(["gradcheck", "--seed", "2984", "--seeds-count", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_corruption_hook_is_reset(self):
        main(["gradcheck", "--seeds-count", "1", "--corrupt-op", "softmax"])
        assert main(["gradcheck", "--seeds-count", "1"]) == 0


class TestOracle:
    def test_oracle_passes_and_reports_reduction(self, capsys):
        code = main(["oracle", "--seeds-count", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "deviation" in out
        # counts of the box set drawn at 1024x2048 from seed 0
        assert "sum min(m^2, 9000) = 135,000" in out
        assert "sum m^2 = 34,662,900,331 pairs" in out
        assert "sum m*C^2 = 225,070,865" in out
        assert "reduction factor" in out

    def test_report_counts_the_pairs_drop_pairs_keeps(self):
        kinds = set()
        for seed in range(5):
            lines = pair_reduction_report(height=16, width=24, n_boxes=6, n_active=3,
                                          budget=400, num_classes=3, seed=seed)
            boxset = generate_boxes(seed, 16, 24, 6, n_box=3)
            pairs = drop_pairs(boxset, 400, np.random.default_rng(seed))
            kinds |= {bp.q is None for bp in pairs.per_box if len(bp) > 0}
            m = [len(bp.region) for bp in pairs.per_box]
            report = "\n".join(lines)
            assert f"sum min(m^2, 400) = {sum(pairs.counts()):,}\n" in report
            assert f"sum m^2 = {sum(k * k for k in m):,} pairs" in report
            assert f"{sum(m):,} rows" in report
            assert f"sum m*C^2 = {9 * sum(m):,} multiply-adds" in report
        assert kinds == {True, False}  # boxes that fit and boxes that are sampled


class TestTrainCheckpoints:
    def test_checkpoint_every_writes_loadable_step_checkpoints(self, tmp_path, tiny_config):
        code, out = _train(tmp_path, tiny_config, "run", "--checkpoint-every", "2")
        assert code == 0
        assert sorted(p.name for p in out.glob("checkpoint*.bin")) == [
            "checkpoint-step2.bin", "checkpoint-step4.bin", "checkpoint.bin"]
        for step in (2, 4):
            _, _, meta = load_checkpoint(out / f"checkpoint-step{step}.bin")
            assert meta["step"] == step
        last, _ = read_blob(out / "checkpoint-step4.bin")
        final, _ = read_blob(out / "checkpoint.bin")
        assert last.keys() == final.keys()
        assert all(np.array_equal(last[k], final[k]) for k in final)


class TestDump:
    def test_dump_writes_images(self, tmp_path, tiny_config):
        out = tmp_path / "dumps"
        code = main(["dump", "--config", str(tiny_config), "--out-dir", str(out),
                     "--count", "2"])
        assert code == 0
        assert (out / "labeled0.ppm").exists()
        assert (out / "labeled0-labels.pgm").exists()
        assert (out / "cutmix-composed.ppm").exists()
        assert (out / "cutmix-mask.pgm").exists()
        assert (out / "cutmix-boxes.json").exists()

    def test_checkpoint_config_is_the_base(self, tmp_path, tiny_config, capsys):
        # a 3-class 32x32 net, dumped with no config, predicts on its own corpus
        _, run = _train(tmp_path, tiny_config, "run", "--height", "32", "--width", "32")
        ckpt = str(run / "checkpoint.bin")
        out = tmp_path / "dumps"
        assert main(["dump", "--checkpoint", ckpt, "--out-dir", str(out), "--count", "1"]) == 0
        raw = (out / "val0-pred.pgm").read_bytes()
        header = b"P5\n32 32\n255\n"
        assert raw.startswith(header) and len(raw) == len(header) + 32 * 32
        assert set(raw[len(header):]) == {0, 127, 254}
        capsys.readouterr()
        # a flag that changes the net's architecture is refused before any output
        other = tmp_path / "other"
        assert main(["dump", "--checkpoint", ckpt, "--out-dir", str(other),
                     "--num-classes", "4"]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not other.exists()

    @pytest.mark.parametrize("ema_eval", [True, False])
    def test_predictions_come_from_the_scored_weights(self, tmp_path, tiny_config, ema_eval):
        _, run = _train(tmp_path, tiny_config, "run")
        ckpt = run / "checkpoint.bin"
        out = tmp_path / "dumps"
        assert main(["dump", "--checkpoint", str(ckpt), "--out-dir", str(out), "--count", "1",
                     "--ema-eval", str(ema_eval).lower()]) == 0
        net, ema_state, meta = load_checkpoint(ckpt)
        image = meta["config"].make_dataset().validation(0).image
        with no_grad():
            teacher, student = (np.argmax(net.forward(image, params=p).data, axis=2)
                                for p in (ema_state.teacher_params, None))
        assert not np.array_equal(teacher, student)
        save_pgm(tmp_path / "expected.pgm", teacher if ema_eval else student,
                 TINY_CONFIG["num_classes"])
        assert (out / "val0-pred.pgm").read_bytes() == (tmp_path / "expected.pgm").read_bytes()


class TestUsage:
    def test_missing_input_files_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.bin")
        assert main(["evaluate", "--checkpoint", missing]) == 2
        assert main(["train", "--config", missing, "--out-dir", str(tmp_path / "o")]) == 2
        assert main(["dump", "--checkpoint", missing, "--out-dir", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 3 and all(missing in line for line in err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ['{"epochs": 1,', "1", "null",
                                      '{"config_hash": "x", "config": [1, 2]}'])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for command in ("train", "dump"):
            assert main([command, "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 2 and all(line.startswith("config error:") for line in err)
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("cut", ["header", "payload", *HEADER_EDITS])
    def test_truncated_checkpoint_exits_2(self, tmp_path, tiny_config, capsys, cut):
        """A cut file, or a header that parses but does not describe the
        tensors the net needs, exits 2 with one line and writes nothing."""
        _, run = _train(tmp_path, tiny_config, "run")
        blob = (run / "checkpoint.bin").read_bytes()
        short = tmp_path / "short.bin"
        if cut in HEADER_EDITS:
            _rewrite_header(run / "checkpoint.bin", short, HEADER_EDITS[cut])
        else:
            short.write_bytes(blob[:200] if cut == "header" else blob[:-8])
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(short)]) == 2
        assert main(["dump", "--checkpoint", str(short), "--out-dir", str(tmp_path / "d")]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 2 and all(line.startswith("checkpoint error:") for line in err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run", "short.bin"]

    @pytest.mark.parametrize("lr0", ["-1", "0", "nan"])
    def test_bad_lr0_exits_2_before_writing(self, tmp_path, tiny_config, lr0):
        code, out = _train(tmp_path, tiny_config, "bad-lr", "--lr0", lr0)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags,config", [
        (["--height", "4"], {}),
        (["--num-classes", "1"], {}),
        (["--model-widths", "200,200"], {}),
        (["--momentum", "nan"], {}),
        ([], {"epochs": "ten"}),
    ], ids=["height", "num_classes", "param_cap", "momentum", "epochs_type"])
    def test_invalid_config_exits_2_before_writing(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, **config}))
        code = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "run"), *flags])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--seeds-count", "0"],
        ["oracle", "--seeds-count", "0"],
        ["ablate", "--seeds", "0,1,x", "--out-dir", "out"],
        ["gradcheck", "--seeds-count", "1", "--corrupt-op", "nosuchop"],
        ["gradcheck", "--seeds-count", "1", "--corrupt-op", "log"],
        ["dump", "--count", "-1", "--out-dir", "out"],
    ], ids=["gradcheck", "oracle", "ablate", "corrupt-op-unknown", "corrupt-op-gone",
            "dump-count"])
    def test_bad_subcommand_arguments_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert list(tmp_path.iterdir()) == []

    def test_pair_mode_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--pair-mode", "ordered", "--out-dir", str(tmp_path / "a")])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "pair_mode": "ordered"}))
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--checkpoint", "run.bin", "--num-classes", "6"],
        ["evaluate", "--checkpoint", "run.bin", "--model-widths", "8,8"],
        ["evaluate", "--checkpoint", "run.bin", "--config", "x.json"],
        ["gradcheck", "--lr0", "-5"],
        ["oracle", "--out-dir", "d"],
    ], ids=["evaluate-num-classes", "evaluate-model-widths", "evaluate-config",
            "gradcheck-lr0", "oracle-out-dir"])
    def test_flag_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys,
                                                       monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [
        ("use_consistency", False), ("use_structured", True), ("in_channels", 3),
    ])
    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_removed_config_keys_are_rejected(self, tmp_path, capsys, key, value, source):
        cfg = {**TINY_CONFIG, key: value}
        if source == "manifest":
            cfg = {"config": cfg, "config_hash": "0" * 64}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"config error: unknown config key: {key}"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_dump_needs_two_unlabeled_scenes_with_both_weights_zero(self, tmp_path, capsys):
        # the CutMix preview reads unlabeled scenes 0 and 1 whatever the weights
        out = tmp_path / "d"
        assert main(["dump", "--consistency-weight", "0", "--structured-weight", "0",
                     "--n-unlabeled", "1", "--count", "1", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("config error:") and "n_unlabeled" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["train"], ["ablate", "--seeds", "0,1,2"], ["dump"]])
    def test_out_dir_naming_a_file_exits_2_before_any_work(self, tmp_path, tiny_config, capsys,
                                                           monkeypatch, command):
        runs = []
        monkeypatch.setattr(Trainer, "run", lambda self, on_step=None: runs.append(self))
        taken = tmp_path / "taken"
        taken.write_text("a file")
        assert main([*command, "--config", str(tiny_config), "--out-dir", str(taken)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("usage error:") and str(taken) in err[0]
        assert runs == []  # no training ran
        assert taken.read_text() == "a file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    @pytest.mark.parametrize("config", [TrainConfig(), TrainConfig.ablation_preset()],
                             ids=["default", "preset"])
    def test_flags_round_trip_every_setting(self, config):
        def text(v):
            if isinstance(v, bool):
                return str(v).lower()
            return ",".join(map(str, v)) if isinstance(v, list) else repr(v)

        flags = [part for key, v in config.to_dict().items()
                 for part in ("--" + key.replace("_", "-"), text(v))]
        assert len(flags) == 2 * 27
        for command in ("train", "ablate", "dump"):
            args = build_parser().parse_args([command, *flags])
            assert resolve_config(args).config_hash() == config.config_hash()

    @pytest.mark.parametrize("flag,value,kind", [
        ("--ema-eval", "maybe", "true or false"), ("--model-widths", "8,x", "a list of integers"),
        ("--epochs", "1.5", "an integer"), ("--lr0", "fast", "a number")],
        ids=["ema-eval", "model-widths", "epochs", "lr0"])
    def test_unreadable_flag_value_exits_2_with_one_line(self, tmp_path, capsys,
                                                         flag, value, kind):
        assert main(["train", flag, value, "--out-dir", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {flag} must be {kind}, got {value!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--no-such-flag", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
