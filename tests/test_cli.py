"""Golden file style checks of the command line front end."""

import contextlib
import gc
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

import tracegen as tg
from tracegen import boundary, cli, verify
from tracegen.cli import main
from tracegen.mobius import ROOT_MARGIN
from tracegen.monoid import Heap, TraceJSON, iter_bits
from tracegen.sampler import Sampler, _ramp

from conftest import chorded_cycle, grid_model

MODEL = str(Path(__file__).resolve().parent.parent / "models" / "p4.json")
# pyproject.toml's pythonpath reaches this process only, not the
# interpreters the tests start
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _path16_file(tmp_path):
    """A model file of the 16-letter path x0 - x1 - ... - x15."""
    letters = [f"x{i}" for i in range(16)]
    model_file = tmp_path / "path16.json"
    model_file.write_text(json.dumps({"letters": letters,
                                      "dependence": [list(e) for e in zip(letters, letters[1:])]}))
    return model_file


def test_analyze_golden(capsys):
    code, out, err = run_cli(capsys, "analyze", "--model", MODEL)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data == {
        "letters": ["a", "b", "c", "d"],
        "clique_count": 8,
        "mobius_coefficients": [1, -4, 3],
        "p_sigma": 0.333333333333,
        "irreducible": True,
    }


def test_analyze_with_subsets(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--model", MODEL, "--subset", "b,c", "--subset", "b,c,d"
    )
    assert code == 0
    subsets = json.loads(out)["subsets"]
    assert subsets["b,c"]["mobius_coefficients"] == [1, -2]
    assert subsets["b,c"]["smallest_root"] == 0.5
    assert subsets["b,c,d"]["mobius_coefficients"] == [1, -3, 1]
    assert subsets["b,c,d"]["smallest_root"] == pytest.approx(0.381966011250)


def test_sample_golden_lines(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--model", MODEL, "--p", "0.2", "--n", "3", "--seed", "7"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "# seed=7 p=0.2 n=3",
        "(a c)",
        "1",
        "1",
    ]


def test_sample_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--model", MODEL, "--p", "0.2", "--n", "2",
        "--seed", "7", "--format", "json",
    )
    assert code == 0
    lines = out.splitlines()
    header = json.loads(lines[0])
    assert header == {"seed": 7, "p": 0.2, "n": 2}
    first = json.loads(lines[1])
    assert first == [["a", "c"]]
    assert json.loads(lines[2]) == []


def test_sample_is_deterministic(capsys):
    argv = ["sample", "--model", MODEL, "--p", "0.25", "--n", "20", "--seed", "3"]
    _, first, _ = run_cli(capsys, *argv)
    _, again, _ = run_cli(capsys, *argv)
    assert first == again


def test_sample_rejects_p_beyond_root(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--model", MODEL, "--p", "0.5", "--n", "1"
    )
    assert code == 2 and out == ""
    assert "0.333333333333" in err


@pytest.mark.parametrize("p", ["1e-7", "1e-9", "1e-12"])
def test_sample_at_tiny_p(capsys, p):
    code, out, err = run_cli(capsys, "sample", "--model", MODEL, "--p", p, "--n", "3")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["1"] * 3


@pytest.mark.parametrize("data", [
    {"letters": [1, 2], "dependence": [[1, 2]]},
    {"letters": [["a"], "b"], "dependence": []},
    {"letters": ["a", "b"], "dependence": 5},
], ids=["integer-letters", "list-letter", "integer-dependence"])
def test_malformed_model_exits_2_before_output(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "sample", "--model", str(bad), "--p", "0.3", "--n", "5", "--seed", "3"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_sample_rejects_p_inside_the_root_margin(capsys):
    # below the root but within ROOT_MARGIN of it: the sampler refuses it,
    # so the command must fail before writing its header
    code, out, err = run_cli(
        capsys, "sample", "--model", MODEL, "--p", "0.3333333333"
    )
    assert code == 2 and out == ""
    assert repr(1 / 3) in err
    assert f"ROOT_MARGIN={ROOT_MARGIN!r}" in err


@pytest.mark.parametrize("argv", [
    ("sample", "--model", MODEL, "--p", "0.2", "--n", "-3"),
    ("sample", "--model", MODEL, "--p", "0.2", "--seed", "-1"),
    ("stream", "--model", MODEL, "--blocks", "-2"),
    ("stream", "--model", MODEL, "--min-length", "-1"),
    ("stream", "--model", MODEL, "--blocks", "3", "--workers", "0"),
    ("stream", "--model", MODEL, "--blocks", "3", "--seed", "-1"),
    ("verify", "--model", MODEL, "--suite", "mobius", "--seed", "-1"),
], ids=["n", "sample-seed", "blocks", "min-length", "workers", "stream-seed",
        "verify-seed"])
def test_bad_numbers_exit_2_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "must be at least" in captured.err


def test_unreadable_model_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--model", "/nonexistent/m.json")
    assert code == 2
    assert "error" in err.lower()


def test_invalid_model_content(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"letters": ["a"], "dependence": [["a", "z"]]}))
    code, _, err = run_cli(capsys, "analyze", "--model", str(bad))
    assert code == 2
    assert "z" in err


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--model", MODEL, "--bogus"])
    assert exc.value.code == 2


def test_stream_golden_and_repeatable(capsys):
    argv = [
        "stream", "--model", MODEL, "--pivot-letter", "a",
        "--blocks", "3", "--seed", "7",
    ]
    code, first, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, again, _ = run_cli(capsys, *argv)
    assert first == again
    lines = first.splitlines()
    assert json.loads(lines[0]) == {
        "seed": 7, "pivot": "a", "p_star": 1 / 3,
    }
    records = [json.loads(line) for line in lines[1:]]
    assert [r["k"] for r in records] == [1, 2, 3]
    assert records[0]["block"] == [["b", "d"], ["c"], ["b"], ["c"], ["b"], ["a"]]
    assert records[-1]["length"] == 12


def test_stream_emit_final_matches_each_block_product(capsys):
    # the final trace is the product of the printed blocks, for a block
    # count and for a length stop
    model = tg.load_model(MODEL)
    finals = []
    for stop in (["--blocks", "5"], ["--blocks", "0", "--min-length", "10"]):
        base = ["stream", "--model", MODEL, "--pivot-letter", "a", *stop, "--seed", "9"]
        _, each, _ = run_cli(capsys, *base)
        _, final, _ = run_cli(capsys, *base, "--emit", "final")
        records = [json.loads(line) for line in each.splitlines()[1:]]
        only = json.loads(final.splitlines()[-1])
        assert only["k"] == records[-1]["k"] == len(records)
        assert only["length"] == records[-1]["length"]
        assert "final" in only and "block" not in only
        product = tg.UNIT
        for record in records:
            block = tg.normalize(model, [a for factor in record["block"] for a in factor])
            product = tg.concat(model, product, block)
        assert only["final"] == tg.trace_to_lists(model, product)
        finals.append(only)
    assert finals[0]["k"] == 5
    assert finals[1]["k"] > 1 and finals[1]["length"] >= 10


def test_each_block_stream_runs_in_bounded_memory(tmp_path):
    # Each-block mode keeps no product, so the traced peak stays flat as
    # blocks go by.  This test read 0.77 MB; with every block also dropped
    # on an accumulated heap it read 3.0 MB.  Run alone, the peak stayed at
    # 0.5 MB from 500 to 4,000 blocks, where the accumulating stream read
    # 1.8 MB at 500, 2.7 MB at 1,000 and 9-10 MB at 4,000.  1.5 MB lies
    # between the two.  With two workers this process holds only the
    # ranges in flight.
    model = _path16_file(tmp_path)
    for workers in ("1", "2"):
        argv = ["stream", "--model", str(model), "--seed", "3", "--workers", workers, "--blocks"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(argv + ["10"])  # module caches filled once per process stay out of the peak
            tracemalloc.start()
            try:
                main(argv + ["1000"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1.5e6, (workers, peak)


def test_stream_min_length_stops(capsys):
    code, out, _ = run_cli(
        capsys, "stream", "--model", MODEL, "--pivot-letter", "a",
        "--blocks", "0", "--min-length", "10", "--seed", "7",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()[1:]]
    assert records[-1]["length"] >= 10
    assert all(r["length"] < 10 for r in records[:-1])


def _model_file(tmp_path, name, model):
    """A model file of the given model."""
    pairs = [[model.letters[i], model.letters[j]] for i, mask in enumerate(model.dependence)
             for j in iter_bits(mask) if i < j]
    model_file = tmp_path / f"{name}.json"
    model_file.write_text(json.dumps({"letters": list(model.letters), "dependence": pairs}))
    return str(model_file)


# models on which a glued range's landing levels come to align late
LATE_MODELS = {"chorded28": chorded_cycle(28, (0, 5, 11, 17, 23)), "grid5x5": grid_model(5, 5)}


@pytest.mark.parametrize("model, stop", [
    ("p4", ["--blocks", "1"]), ("p4", ["--blocks", "6"]), ("p4", ["--blocks", "600"]),
    ("p4", ["--blocks", "2100"]), ("p4", ["--min-length", "2000"]),
    ("chorded28", ["--blocks", "2100"]), ("chorded28", ["--min-length", "20000"]),
    ("grid5x5", ["--blocks", "2100"]),
], ids=["blocks-1", "blocks-6", "blocks-600", "blocks-2100", "min-length",
        "chorded28-blocks-2100", "chorded28-min-length", "grid5x5-blocks-2100"])
@pytest.mark.parametrize("emit", ["each-block", "final"])
def test_stream_workers_output_is_byte_identical(capsys, tmp_path, emit, model, stop):
    # the pool's ranges ramp from 16 blocks: 600 blocks end in ranges of 75
    # on 2 workers, 2100 blocks in ranges of 256, the cap, on 2 workers and
    # of 175 on 3, and a length stop ramps towards endless ranges of 256;
    # with --emit final the main process glues each range, but the range
    # that holds a length stop, block by block up to it
    if model == "p4":
        base = ["stream", "--model", MODEL, "--pivot-letter", "a"]
    else:
        base = ["stream", "--model", _model_file(tmp_path, model, LATE_MODELS[model])]
    base += [*stop, "--seed", "7", "--emit", emit]
    _, sequential, _ = run_cli(capsys, *base)
    for workers in ("2", "3"):
        _, parallel, _ = run_cli(capsys, *base, "--workers", workers)
        assert sequential == parallel, workers
    assert len(sequential.splitlines()) > 1
    if stop[0] == "--min-length":
        # the stop falls inside a range, not on the edge of one
        edges = {r.stop for r in islice(_ramp(0, boundary.NO_LAST_BLOCK, 256), 40)}
        assert json.loads(sequential.splitlines()[-1])["k"] not in edges


def test_trace_records_are_in_json_dumps_layout(capsys):
    # the records are written from cached text, not by json.dumps
    stream = ["stream", "--model", MODEL, "--pivot-letter", "b", "--blocks", "40", "--seed", "3"]
    outputs = [run_cli(capsys, *stream)[1], run_cli(capsys, *stream, "--emit", "final")[1],
               run_cli(capsys, "sample", "--model", MODEL, "--p", "0.3", "--n", "40",
                       "--format", "json")[1]]
    for out in outputs:
        for line in out.splitlines():
            assert line == json.dumps(json.loads(line))


def test_endless_stream_with_workers_ends_cleanly_on_sigint():
    # stdout reaches EOF only once no pool worker holds the pipe any more
    proc = subprocess.Popen(
        [sys.executable, "-m", "tracegen.cli", "stream", "--model", MODEL, "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV, start_new_session=True,
    )
    try:
        assert "p_star" in json.loads(proc.stdout.readline())
        records = [json.loads(proc.stdout.readline()) for _ in range(3)]
        assert [r["k"] for r in records] == [1, 2, 3]
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the whole tree, should the test fail
        proc.wait()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_reader_that_closes_the_pipe_ends_the_stream_quietly(workers):
    # the status a SIGPIPE death gives, not 2, which means bad input
    proc = subprocess.Popen(
        [sys.executable, "-m", "tracegen.cli", "stream", "--model", MODEL, "--workers", workers],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV, start_new_session=True,
    )
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the whole tree, should the test fail
        proc.wait()
    assert "p_star" in json.loads(lines[0]) and json.loads(lines[1])["k"] == 1
    assert proc.returncode == 141 and err == b""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ctrl_c_inside_a_block_ends_the_stream_after_that_block(capsys, monkeypatch, workers):
    # SIGINT arrives while block 40 is half dropped on the heap, or, with a
    # pool, while the third range (blocks 49 to 112) is glued on it: the
    # final record is still the product of whole blocks, the first 40, or
    # the first 112, those of the ranges glued
    drops = []

    class InterruptedHeap(Heap):
        def extend(self, indices):
            indices = list(indices)
            drops.append(len(indices))
            super().extend(indices[:len(indices) // 2])
            if len(drops) == 40:
                os.kill(os.getpid(), signal.SIGINT)
            super().extend(indices[len(indices) // 2:])

        def glue(self, factors, landing):
            drops.append(len(factors))
            if len(drops) == 3:
                os.kill(os.getpid(), signal.SIGINT)
            return super().glue(factors, landing)

    monkeypatch.setattr(cli, "Heap", InterruptedHeap)
    handler = signal.getsignal(signal.SIGINT)
    code, out, err = run_cli(capsys, "stream", "--model", MODEL, "--emit", "final",
                             "--seed", "7", "--workers", workers)
    assert code == 0, err
    record = json.loads(out.splitlines()[-1])
    k = 40 if workers == "1" else 16 + 32 + 64
    model = tg.load_model(MODEL)
    xi = tg.open_stream(model, "a", seed=7).run(k)
    assert record == {"k": k, "final": tg.trace_to_lists(model, xi), "length": xi.length}
    assert signal.getsignal(signal.SIGINT) is handler


def test_stream_runs_outside_the_main_thread(capsys):
    # only the main thread may set a signal handler; elsewhere the stream
    # runs without one
    argv = ["stream", "--model", MODEL, "--blocks", "30", "--seed", "7", "--emit", "final"]
    _, expected, _ = run_cli(capsys, *argv)
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0]
    assert capsys.readouterr().out == expected


def test_ctrl_c_on_an_endless_final_stream_with_workers_prints_a_whole_prefix(tmp_path):
    # Ctrl-C reaches the whole process group, pool workers included; the
    # record is the product of the first k blocks for the k it reports, and
    # stdout reaches EOF only once no pool worker holds the pipe any more
    model_file = _path16_file(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "tracegen.cli", "stream", "--model", str(model_file),
         "--seed", "5", "--workers", "2", "--emit", "final"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
        start_new_session=True,
    )
    try:
        assert "p_star" in json.loads(proc.stdout.readline())
        time.sleep(0.5)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the whole tree, should the test fail
        proc.wait()
    # the record runs to megabytes, so it is compared as text, in the
    # json.dumps layout that TraceJSON is tested to give
    k = int(re.match(r'{"k": (\d+), ', out).group(1))
    model = tg.load_model(str(model_file))
    xi = tg.open_stream(model, "x0", seed=5).run(k)
    to_json = TraceJSON(model)
    assert out == f'{{"k": {k}, "final": {to_json(xi)}, "length": {xi.length}}}\n'


def test_a_dead_pool_worker_ends_a_final_stream_with_a_whole_prefix(tmp_path):
    # a worker killed mid-run breaks the pool: the run ends as Ctrl-C ends
    # it, with the record of the whole blocks received, then one error line
    # and status 1, which is not the status of bad input
    model_file = _path16_file(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tracegen.cli", "stream", "--model", str(model_file),
         "--seed", "5", "--workers", "2", "--emit", "final"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CHILD_ENV,
        start_new_session=True,
    )
    try:
        assert "p_star" in json.loads(proc.stdout.readline())
        time.sleep(0.3)
        # the pool's workers are the only children of the CLI process
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as handle:
            workers = handle.read().split()
        assert len(workers) == 2
        os.kill(int(workers[0]), signal.SIGKILL)
        out, err = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the whole tree, should the test fail
        proc.wait()
    assert proc.returncode == 1, err
    assert len(err.splitlines()) == 1 and err.startswith("error: the worker pool broke")
    k = int(re.match(r'{"k": (\d+), ', out).group(1))
    model = tg.load_model(str(model_file))
    xi = tg.open_stream(model, "x0", seed=5).run(k)
    assert out == f'{{"k": {k}, "final": {TraceJSON(model)(xi)}, "length": {xi.length}}}\n'


def test_an_endless_final_stream_shows_its_header_on_a_pipe_while_it_runs(tmp_path):
    # --emit final prints nothing else before the end, so the header must
    # be flushed, even with Python's output buffered, as on a pipe
    model_file = _path16_file(tmp_path)
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "tracegen.cli", "stream", "--model", str(model_file),
         "--seed", "5", "--emit", "final"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready and proc.poll() is None
        header = json.loads(proc.stdout.readline())
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # should the test fail
        proc.wait()
    assert header["seed"] == 5 and header["pivot"] == "x0"
    assert out.startswith('{"k": ')


def test_only_the_process_entry_freezes_the_collector(capsys, monkeypatch):
    # main() leaves a caller's collector alone; the process entry, which
    # `python -m tracegen.cli` and the tracegen script run, freezes the
    # objects of the imports before main() runs
    frozen = gc.get_freeze_count()
    run_cli(capsys, "stream", "--model", MODEL, "--blocks", "3", "--workers", "2")
    assert gc.get_freeze_count() == frozen
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    assert cli.process_main() == 0 and calls == ["freeze", "main"]
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    assert 'tracegen = "tracegen.cli:process_main"' in pyproject.splitlines()


def test_stream_rejects_reducible_model(tmp_path, capsys):
    free = tmp_path / "pair.json"
    free.write_text(json.dumps({"letters": ["a", "b"], "dependence": []}))
    code, _, err = run_cli(
        capsys, "stream", "--model", str(free), "--blocks", "2"
    )
    assert code == 2
    assert "irreducible" in err


def test_stream_refuses_a_one_letter_model(tmp_path, capsys):
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"letters": ["a"], "dependence": []}))
    code, out, err = run_cli(capsys, "stream", "--model", str(single), "--blocks", "2")
    assert code == 2 and out == ""
    assert "one letter alphabet" in err
    # the opt-in that once let it through is an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["stream", "--model", str(single), "--allow-trivial"])
    assert exc.value.code == 2


def test_analyze_counts_cliques_of_a_48_letter_path(capsys, tmp_path):
    letters = [f"x{i}" for i in range(48)]
    model_file = tmp_path / "path48.json"
    model_file.write_text(json.dumps({
        "letters": letters,
        "dependence": [list(pair) for pair in zip(letters, letters[1:])],
    }))
    code, out, err = run_cli(capsys, "analyze", "--model", str(model_file))
    assert code == 0 and err == ""
    assert json.loads(out)["clique_count"] == 12_586_269_025  # F(50)


def test_verify_mobius_suite(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--model", MODEL, "--suite", "mobius",
        "--report", str(report_file),
    )
    assert code == 0 and out == ""
    payload = json.loads(report_file.read_text())
    assert payload and all(entry["passed"] for entry in payload)
    for line in err.strip().splitlines():
        assert line.startswith("pass ")


@pytest.mark.parametrize("suite", ["mobius", "all"])
def test_verify_rejects_unknown_pivot_before_any_suite(capsys, monkeypatch, suite):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran before the pivot letter was checked")

    monkeypatch.setattr(verify, "run_mobius_suite", refuse)
    code, out, err = run_cli(
        capsys, "verify", "--model", MODEL, "--suite", suite, "--pivot-letter", "zz"
    )
    assert code == 2 and out == ""
    assert "'zz'" in err


def test_verify_input_the_suites_refuse_leaves_no_report_file(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--model", MODEL, "--pivot-letter", "zz", "--report", str(report_file)
    )
    assert code == 2 and out == "" and "'zz'" in err
    assert not report_file.exists()


def test_verify_refuses_an_unwritable_report_path_before_any_suite(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran before the report path was checked")

    monkeypatch.setattr(verify, "run_suite", refuse)
    report_file = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--model", MODEL, "--suite", "all", "--report", str(report_file)
    )
    assert code == 2 and out == ""
    assert str(report_file) in err


def test_verify_leaves_an_existing_report_until_the_suites_end(capsys, monkeypatch, tmp_path):
    report_file = tmp_path / "report.json"
    report_file.write_text("previous\n")
    seen = []

    def no_reports(*args, **kwargs):
        seen.append(report_file.read_text())
        return []

    monkeypatch.setattr(verify, "run_suite", no_reports)
    code, out, _ = run_cli(
        capsys, "verify", "--model", MODEL, "--suite", "all", "--report", str(report_file)
    )
    assert code == 0 and out == ""
    assert seen == ["previous\n"] and report_file.read_text() == "[]\n"


@pytest.mark.parametrize("suite", ["finite", "boundary", "all"])
def test_verify_refuses_models_past_the_oracle_cap_before_sampling(
    capsys, monkeypatch, tmp_path, suite
):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite sampled before the oracle cap was checked")

    monkeypatch.setattr(verify, "sample_many", refuse)
    monkeypatch.setattr(Sampler, "draw", refuse)
    letters = [f"x{i}" for i in range(8)]
    model_file = tmp_path / "path8.json"
    model_file.write_text(json.dumps({
        "letters": letters,
        "dependence": [list(pair) for pair in zip(letters, letters[1:])],
    }))
    code, out, err = run_cli(capsys, "verify", "--model", str(model_file), "--suite", suite)
    assert code == 2 and out == ""
    assert "limited to 6 letters, got 8" in err


def test_module_invocation_works():
    proc = subprocess.run(
        [sys.executable, "-m", "tracegen.cli", "analyze", "--model", MODEL],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p_sigma"] == 0.333333333333


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the p-values of the verify suites; the package
    # itself loads neither the suites nor the oracle nor the process pool
    lean = {"tracegen.oracle", "tracegen.verify", "concurrent.futures.process"}
    for module, unwanted in [("tracegen.cli", set()), ("tracegen", lean)]:
        code = f"import json, sys, {module}\nprint(json.dumps(sorted(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert [m for m in loaded if m.split(".")[0] == "scipy" or m in unwanted] == [], module


def test_cli_import_leaves_the_suites_unloaded():
    # sample and stream need neither the suites nor the oracle; verify
    # imports them when it runs
    code = "import json, sys, tracegen.cli\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert loaded & {"tracegen.oracle", "tracegen.verify"} == set()
