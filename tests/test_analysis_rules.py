"""Tests for the ``repro lint`` rule suite (RPR001-RPR009, RPR013-RPR015).

Every registered rule must have at least one *triggering* and one
*non-triggering* fixture here — ``test_every_rule_has_fixtures`` fails
the suite if a new rule lands without them.  The fixtures deliberately
mirror the historical bug patterns each rule encodes (see DESIGN.md):
e.g. the RPR004 trigger is the exact ``time.time()`` pattern the seed's
``repro/cli.py`` shipped with before PR 2 fixed it.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (DRIVER_CODE, all_rules, lint_paths,
                            load_baseline, save_baseline)
from repro.cli import main as cli_main
from repro.errors import AnalysisError

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

ALL_CODES = {"RPR001", "RPR002", "RPR003", "RPR004", "RPR005",
             "RPR006", "RPR007", "RPR008", "RPR009", "RPR013",
             "RPR014", "RPR015"}


def write_module(root: Path, relpath: str, source: str) -> Path:
    """Write ``source`` at ``relpath``, creating the ``__init__.py``
    chain so the file gets a real dotted module name."""
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    directory = path.parent
    while directory != root:
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
        directory = directory.parent
    path.write_text(textwrap.dedent(source))
    return path


def lint_codes(tmp_path: Path, files) -> list:
    for relpath, source in files:
        write_module(tmp_path, relpath, source)
    result = lint_paths([str(tmp_path)])
    return [d.code for d in result.diagnostics]


# Each rule: fixtures that must trigger it and fixtures that must not.
# Unscoped rules use bare files; package-scoped rules (RPR001's storage
# exemption, RPR006's strict packages, RPR007's names module) build a
# miniature ``repro`` package tree.
FIXTURES = {
    "RPR001": {
        "bad": [("caller.py", """
            def load(pf, page_id):
                return pf.read_page(page_id)
            """)],
        "good": [("caller.py", """
            from repro.storage import pageio

            def load(pf, page_id):
                return pageio.read_page(pf, page_id, component="core")
            """)],
    },
    "RPR002": {
        "bad": [("metrics_user.py", """
            def bump(registry):
                registry.counter("reads_total").inc()
            """)],
        "good": [("metrics_user.py", """
            from repro.obs import names

            def bump(registry):
                registry.counter(names.PAGEDFILE_READS).inc()
            """)],
    },
    "RPR003": {
        "bad": [("pinner.py", """
            def hold(pool, pf):
                page = pool.get(pf, 1, pin=True)
                return page
            """)],
        "good": [("pinner.py", """
            def hold(pool, pf):
                try:
                    page = pool.get(pf, 1, pin=True)
                    return bytes(page)
                finally:
                    pool.unpin(pf, 1)

            def peek(pool, pf):
                return pool.get(pf, 1, pin=False)
            """)],
    },
    "RPR004": {
        # The seed's repro/cli.py pattern, verbatim (pre-PR-2).
        "bad": [("timer.py", """
            import time

            def run(runner, scale):
                started = time.time()
                result = runner(scale)
                elapsed = time.time() - started
                return result, elapsed
            """)],
        "good": [("timer.py", """
            import time

            def run(runner, scale):
                started = time.perf_counter()
                result = runner(scale)
                elapsed = time.perf_counter() - started
                return result, elapsed
            """)],
    },
    "RPR005": {
        "bad": [("compare.py", """
            def same_detail(dov, previous_dov):
                return dov == previous_dov
            """)],
        "good": [("compare.py", """
            import math

            def pruned(dov):
                return dov == 0.0

            def same_detail(dov, previous_dov):
                return math.isclose(dov, previous_dov)
            """)],
    },
    "RPR006": {
        "bad": [("repro/core/helpers.py", """
            def scale(value, factor):
                return value * factor
            """)],
        "good": [
            ("repro/core/helpers.py", """
                from typing import Tuple

                def scale(value: float, factor: float) -> float:
                    return value * factor

                def pair(value: float) -> Tuple[float, float]:
                    return (value, value)
                """),
            # The same unannotated code outside the strict packages is
            # not the ratchet's business.
            ("repro/experiments/helpers.py", """
                def scale(value, factor):
                    return value * factor
                """),
        ],
    },
    "RPR007": {
        "bad": [("repro/obs/names.py",
                 'UNUSED_TOTAL = "unused_total"\n')],
        "good": [
            ("repro/obs/names.py", 'USED_TOTAL = "used_total"\n'),
            ("repro/core/user.py", """
                from repro.obs import names

                ACTIVE = names.USED_TOTAL
                """),
        ],
    },
    "RPR008": {
        "bad": [("swallow.py", """
            def load(path):
                try:
                    with open(path) as fh:
                        return fh.read()
                except ValueError:
                    pass

            def load_any(path):
                try:
                    with open(path) as fh:
                        return fh.read()
                except:
                    return None
            """)],
        "good": [
            ("handler.py", """
                def load(path, log):
                    try:
                        with open(path) as fh:
                            return fh.read()
                    except ValueError as exc:
                        log.warning("bad file %s: %s", path, exc)
                        return None
                """),
            # The same swallow inside a designated fault-boundary
            # module is that module's job, not a violation.
            ("repro/storage/faults.py", """
                def absorb(op):
                    try:
                        return op()
                    except IOError:
                        pass
                    return None
                """),
        ],
    },
    "RPR009": {
        "bad": [("repro/serving/http/handlers.py", """
            from time import perf_counter

            def stamp_response(body):
                body["answered_at"] = perf_counter()
                return body
            """)],
        "good": [
            # The middleware is the sanctioned timing boundary.
            ("repro/serving/http/middleware.py", """
                from time import perf_counter

                def measure(op):
                    started = perf_counter()
                    result = op()
                    return result, perf_counter() - started
                """),
            # Clock-free handlers in the package are the point.
            ("repro/serving/http/handlers.py", """
                def stamp_response(body, elapsed_ms):
                    body["elapsed_ms"] = elapsed_ms
                    return body
                """),
            # The same clock call *outside* the package is RPR004's
            # business (perf_counter is fine there), not RPR009's.
            ("repro/serving/loadgen.py", """
                from time import perf_counter

                def elapsed(op):
                    started = perf_counter()
                    op()
                    return perf_counter() - started
                """),
        ],
    },
    "RPR013": {
        "bad": [("reporter.py", """
            DETERMINISTIC_REPORT = True

            def report(keys):
                seen = {k for k in keys}
                return [k for k in seen]
            """)],
        "good": [("reporter.py", """
            DETERMINISTIC_REPORT = True

            def report(keys):
                seen = {k for k in keys}
                return [k for k in sorted(seen)]
            """)],
    },
    "RPR014": {
        # A scheme decoding V-page bytes itself hard-codes the raw
        # layout — the exact pattern PR 9 removed from the schemes.
        "bad": [("scheme.py", """
            from repro.storage.serializer import decode_vpage

            def ventries(scheme, data):
                return decode_vpage(data)
            """)],
        "good": [
            ("scheme.py", """
                def ventries(scheme, pointer, node_offset):
                    return scheme.codec.read(pointer, scheme, node_offset)
                """),
            # Inside the codec module itself the raw calls are the point.
            ("repro/storage/vpagecodec.py", """
                from repro.storage.serializer import (decode_vpage,
                                                      encode_vpage)

                def decode_page(data):
                    return decode_vpage(data)

                def encode_page(entries, page_size):
                    return encode_vpage(entries, page_size)
                """),
        ],
    },
    "RPR015": {
        # The serving scheduler's old fidelity fan-out, verbatim shape.
        "bad": [("repro/serving/scheduler.py", """
            from concurrent.futures import ThreadPoolExecutor

            def score_all(thunks, workers):
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(lambda t: t(), thunks))
            """)],
        # Process-level parallelism shares no in-process state.
        "good": [("repro/visibility/precompute.py", """
            from concurrent.futures import ProcessPoolExecutor

            def shard_all(shards, workers, run_shard):
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(run_shard, shards))
            """)],
    },
}


def test_every_rule_has_fixtures():
    registered = {rule.code for rule in all_rules()}
    assert registered == ALL_CODES
    assert set(FIXTURES) == registered, (
        "every registered rule needs a triggering and a non-triggering "
        "fixture in FIXTURES")


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_rule_triggers(code, tmp_path):
    codes = lint_codes(tmp_path, FIXTURES[code]["bad"])
    assert code in codes


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_rule_stays_quiet(code, tmp_path):
    codes = lint_codes(tmp_path, FIXTURES[code]["good"])
    assert code not in codes


# -- rule-specific edges ----------------------------------------------------


def test_rpr001_allows_storage_package(tmp_path):
    codes = lint_codes(tmp_path, [("repro/storage/inner.py", """
        def load(pf, page_id):
            return pf.read_page(page_id)
        """)])
    assert "RPR001" not in codes


def test_rpr001_flags_private_attr_access(tmp_path):
    codes = lint_codes(tmp_path, [("poker.py", """
        def poke(pf):
            pf._fh.seek(0)
        """)])
    assert "RPR001" in codes


def test_rpr002_flags_computed_names(tmp_path):
    codes = lint_codes(tmp_path, [("metrics_user.py", """
        def bump(registry, which):
            registry.counter("prefix_" + which).inc()
        """)])
    assert "RPR002" in codes


def test_rpr003_accepts_context_manager(tmp_path):
    codes = lint_codes(tmp_path, [("pinner.py", """
        import contextlib

        def hold(pool, pf):
            with contextlib.closing(pool.get(pf, 1, pin=True)) as page:
                return bytes(page)
        """)])
    assert "RPR003" not in codes


def test_rpr004_ignores_unrelated_time_methods(tmp_path):
    codes = lint_codes(tmp_path, [("timer.py", """
        import time

        def pause():
            time.sleep(0.01)

        def stamp(clock):
            return clock.time()
        """)])
    assert "RPR004" not in codes


def test_rpr005_zero_guard_is_sanctioned(tmp_path):
    codes = lint_codes(tmp_path, [("compare.py", """
        def visible(entry_dov):
            return not (entry_dov == 0.0)

        def also_reversed(eta):
            return 0.0 != eta
        """)])
    assert "RPR005" not in codes


def test_rpr005_matches_segments_not_substrings(tmp_path):
    # "beta" and "metadata" contain "eta" as a substring but not as a
    # snake_case segment; they are ordinary values, not DoV thresholds.
    codes = lint_codes(tmp_path, [("config.py", """
        def unrelated(beta, metadata, other):
            return beta == other and metadata == other
        """)])
    assert "RPR005" not in codes


def test_rpr006_bare_generics_flagged(tmp_path):
    codes = lint_codes(tmp_path, [("repro/core/helpers.py", """
        from typing import List

        def heads(rows: List) -> list:
            return rows[:1]
        """)])
    assert codes.count("RPR006") == 2


def test_rpr008_flags_ellipsis_and_docstring_bodies(tmp_path):
    # "..." and a lone string are just pass in costume.
    codes = lint_codes(tmp_path, [("swallow.py", """
        def quiet(op):
            try:
                return op()
            except ValueError:
                ...

        def documented(op):
            try:
                return op()
            except KeyError:
                "tolerated"
            return None
        """)])
    assert codes.count("RPR008") == 2


def test_rpr008_bare_except_flagged_even_with_real_body(tmp_path):
    codes = lint_codes(tmp_path, [("swallow.py", """
        def load(op, log):
            try:
                return op()
            except:
                log.warning("failed")
                return None
        """)])
    assert "RPR008" in codes


def test_rpr008_reraise_and_transmute_are_fine(tmp_path):
    codes = lint_codes(tmp_path, [("handler.py", """
        def reraise(op):
            try:
                return op()
            except ValueError:
                raise

        def transmute(op):
            try:
                return op()
            except ValueError as exc:
                raise RuntimeError("wrapped") from exc
        """)])
    assert "RPR008" not in codes


def test_rpr008_retry_module_is_exempt(tmp_path):
    codes = lint_codes(tmp_path, [("repro/storage/retry.py", """
        def attempt(op):
            try:
                return op()
            except IOError:
                pass
            return None
        """)])
    assert "RPR008" not in codes


def test_rpr009_catches_aliased_module_clocks(tmp_path):
    codes = lint_codes(tmp_path, [("repro/serving/http/stats.py", """
        import time as clock

        def now_ms():
            return clock.monotonic() * 1000.0
        """)])
    assert "RPR009" in codes


def test_rpr009_ignores_non_clock_time_attrs(tmp_path):
    codes = lint_codes(tmp_path, [("repro/serving/http/server.py", """
        import time

        def backoff():
            time.sleep(0.01)
        """)])
    assert "RPR009" not in codes


def test_rpr013_unmarked_module_exempt(tmp_path):
    # The same unordered iteration outside a byte-deterministic module
    # is nobody's business.
    bad = FIXTURES["RPR013"]["bad"][0][1].replace(
        "DETERMINISTIC_REPORT = True", "")
    codes = lint_codes(tmp_path, [("reporter.py", bad)])
    assert "RPR013" not in codes


def test_rpr013_flags_fs_enumeration(tmp_path):
    codes = lint_codes(tmp_path, [("reporter.py", """
        import os

        DETERMINISTIC_REPORT = True

        def report(root):
            return [name for name in os.listdir(root)]
        """)])
    assert "RPR013" in codes


def test_rpr014_flags_attribute_calls(tmp_path):
    codes = lint_codes(tmp_path, [("poker.py", """
        from repro.storage import serializer

        def peek(data):
            return serializer.decode_vpage(data)
        """)])
    assert "RPR014" in codes


def test_rpr014_serializer_module_is_exempt(tmp_path):
    # The serializer owns the raw byte layout; its own definition and
    # self-use of encode_vpage/decode_vpage are not violations.
    codes = lint_codes(tmp_path, [("repro/storage/serializer.py", """
        def encode_vpage(entries, page_size):
            return b""

        def decode_vpage(data):
            return []

        def roundtrip(entries, page_size):
            return decode_vpage(encode_vpage(entries, page_size))
        """)])
    assert "RPR014" not in codes


# -- driver: file collection, RPR000, pragmas, baseline, CLI ----------------


def test_rpr015_flags_executor_hops(tmp_path):
    codes = lint_codes(tmp_path, [("repro/serving/http/server.py", """
        import asyncio
        import threading

        async def offload(loop, fn):
            await loop.run_in_executor(None, fn)
            await asyncio.to_thread(fn)

        def spawn(fn):
            threading.Thread(target=fn).start()
        """)])
    assert codes.count("RPR015") == 3


def test_rpr015_flags_aliased_imports(tmp_path):
    codes = lint_codes(tmp_path, [("repro/obs/poller.py", """
        from asyncio import to_thread
        from threading import Thread as Worker
        """)])
    assert codes.count("RPR015") == 2


def test_rpr015_is_scoped_to_the_repro_package(tmp_path):
    codes = lint_codes(tmp_path, [("scripts/hammer.py", """
        import threading

        def spawn(fn):
            threading.Thread(target=fn).start()
        """)])
    assert "RPR015" not in codes


def test_iter_python_files_dedupes_symlinked_dirs(tmp_path):
    from repro.analysis import iter_python_files

    real = tmp_path / "pkg"
    real.mkdir()
    (real / "mod.py").write_text("X = 1\n")
    link = tmp_path / "alias"
    link.symlink_to(real, target_is_directory=True)

    # The same file is reachable through pkg/, alias/, and directly;
    # realpath-keyed dedup lints it exactly once.
    files = iter_python_files([str(tmp_path)])
    assert len(files) == 1
    files = iter_python_files([str(real), str(link),
                               str(real / "mod.py"),
                               str(link / "mod.py")])
    assert len(files) == 1


def test_iter_python_files_dedupes_repeated_args(tmp_path):
    from repro.analysis import iter_python_files

    path = tmp_path / "mod.py"
    path.write_text("X = 1\n")
    unnormalised = str(tmp_path / "." / "mod.py")
    files = iter_python_files([str(path), str(path), unnormalised])
    assert files == [str(path)]


def test_iter_python_files_sorted_and_missing_raises(tmp_path):
    from repro.analysis import iter_python_files

    for name in ("b.py", "a.py", "c.py"):
        (tmp_path / name).write_text("X = 1\n")
    files = iter_python_files([str(tmp_path)])
    assert files == sorted(files)
    with pytest.raises(FileNotFoundError):
        iter_python_files([str(tmp_path / "missing")])


def test_syntax_error_is_a_violation(tmp_path):
    write_module(tmp_path, "broken.py", "def f(:\n")
    result = lint_paths([str(tmp_path)])
    assert [d.code for d in result.diagnostics] == [DRIVER_CODE]
    assert not result.ok


def test_driver_code_is_not_suppressible(tmp_path):
    write_module(tmp_path, "broken.py",
                 "# repro: ignore-file[RPR000]\ndef f(:\n")
    result = lint_paths([str(tmp_path)])
    assert [d.code for d in result.diagnostics] == [DRIVER_CODE]


def test_line_pragma_suppresses(tmp_path):
    write_module(tmp_path, "timer.py", textwrap.dedent("""
        import time

        def stamp():
            # Wall-clock wanted: this is a timestamp, not a duration.
            return time.time()  # repro: ignore[RPR004]
        """))
    result = lint_paths([str(tmp_path)])
    assert result.ok
    assert result.pragma_suppressed == 1


def test_file_pragma_suppresses(tmp_path):
    write_module(tmp_path, "timer.py", textwrap.dedent("""
        # repro: ignore-file[RPR004]
        import time

        def stamp():
            return time.time()
        """))
    assert lint_paths([str(tmp_path)]).ok


def test_pragma_for_other_code_does_not_suppress(tmp_path):
    write_module(tmp_path, "timer.py", textwrap.dedent("""
        import time

        def stamp():
            return time.time()  # repro: ignore[RPR001]
        """))
    result = lint_paths([str(tmp_path)])
    assert [d.code for d in result.diagnostics] == ["RPR004"]


def test_baseline_roundtrip(tmp_path):
    bad = FIXTURES["RPR004"]["bad"][0]
    write_module(tmp_path, bad[0], bad[1])
    baseline_file = tmp_path / "lint-baseline.json"

    first = lint_paths([str(tmp_path)])
    assert not first.ok
    save_baseline(str(baseline_file), first.before_baseline)
    assert load_baseline(str(baseline_file))

    second = lint_paths([str(tmp_path)],
                        baseline_path=str(baseline_file))
    assert second.ok
    assert second.baseline_suppressed == len(first.diagnostics)


def test_baseline_budget_is_per_occurrence(tmp_path):
    write_module(tmp_path, "timer.py", textwrap.dedent("""
        import time

        def stamp():
            return time.time()
        """))
    baseline_file = tmp_path / "lint-baseline.json"
    first = lint_paths([str(tmp_path)])
    save_baseline(str(baseline_file), first.before_baseline)

    # One *more* occurrence of the same baselined violation still fails.
    write_module(tmp_path, "timer.py", textwrap.dedent("""
        import time

        def stamp():
            return time.time()

        def stamp_again():
            return time.time()
        """))
    result = lint_paths([str(tmp_path)], baseline_path=str(baseline_file))
    assert not result.ok
    assert len(result.diagnostics) == 1


def test_malformed_baseline_raises(tmp_path):
    baseline_file = tmp_path / "lint-baseline.json"
    baseline_file.write_text(json.dumps({"version": 99}))
    with pytest.raises(AnalysisError):
        load_baseline(str(baseline_file))


def test_real_tree_is_clean():
    result = lint_paths([str(REPO_SRC)])
    assert result.ok, "\n".join(d.format() for d in result.diagnostics)


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_module(tmp_path, "timer.py",
                       "import time\n\n\ndef f():\n    return time.time()\n")
    good = write_module(tmp_path, "clean.py", "X = 1\n")

    assert cli_main(["lint", str(good)]) == 0
    assert cli_main(["lint", str(bad)]) == 1
    assert cli_main(["lint", str(tmp_path / "missing.py")]) == 2
    out = capsys.readouterr().out
    assert "RPR004" in out


def test_cli_lists_rules(capsys):
    assert cli_main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for code in sorted(ALL_CODES):
        assert code in out


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    write_module(tmp_path, "timer.py",
                 "import time\n\n\ndef f():\n    return time.time()\n")
    baseline_file = tmp_path / "lint-baseline.json"
    assert cli_main(["lint", str(tmp_path),
                     "--write-baseline", str(baseline_file)]) == 0
    assert cli_main(["lint", str(tmp_path),
                     "--baseline", str(baseline_file)]) == 0
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    write_module(tmp_path, "timer.py",
                 "import time\n\n\ndef f():\n    return time.time()\n")
    assert cli_main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["code"] == "RPR004"
