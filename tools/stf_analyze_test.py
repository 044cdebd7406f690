#!/usr/bin/env python3
"""Regression tests for tools/stf_analyze.py.

Plain-assert tests (no pytest dependency) run by ctest. Each test builds a
throwaway repo tree (src/ + tests/) in a temp directory, runs the analyzer
over it, and checks which rules fire. Covers a positive and a negative case
per rule, the lexer (comments and string literals must not trigger rules),
inline suppressions, the committed-baseline flow, and the --json schema.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stf_analyze  # noqa: E402

HEADER_OK = "// Unit doc comment.\n#pragma once\n"


def unit(mod: str, name: str, body: str = "",
         header_extra: str = "") -> dict[str, str]:
    """A convention-clean translation unit plus its test reference."""
    return {
        f"src/{mod}/{name}.hpp": HEADER_OK + header_extra,
        f"src/{mod}/{name}.cpp": f'#include "{mod}/{name}.hpp"\n\n' + body,
        f"tests/{name}_test.cpp": f'// include "{mod}/{name}.hpp"\n',
    }


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)


def run(root: Path, files: dict[str, str]) -> list:
    write_tree(root, files)
    (root / "tests").mkdir(exist_ok=True)
    return stf_analyze.analyze(root)


def hits(findings: list, rule: str) -> list:
    return [f for f in findings if f.rule == rule]


def run_main(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = stf_analyze.main(["stf_analyze"] + args)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# Fixture sanity + convention rules
# ---------------------------------------------------------------------------


def test_clean_unit_has_no_findings(tmp: Path) -> None:
    findings = run(tmp, unit("dsp", "clean"))
    assert findings == [], [f.render() for f in findings]


def test_header_doc_missing_is_flagged(tmp: Path) -> None:
    files = unit("dsp", "x")
    files["src/dsp/x.hpp"] = "#pragma once\n"
    findings = run(tmp, files)
    assert len(hits(findings, "header-doc")) == 1, findings


def test_pragma_once_missing_is_flagged(tmp: Path) -> None:
    files = unit("dsp", "x")
    files["src/dsp/x.hpp"] = "// Doc.\n#include <vector>\n"
    findings = run(tmp, files)
    assert len(hits(findings, "pragma-once")) == 1, findings


def test_include_order_wrong_first_include(tmp: Path) -> None:
    files = unit("dsp", "x")
    files["src/dsp/x.cpp"] = ('#include "dsp/other.hpp"\n'
                              '#include "dsp/x.hpp"\n')
    findings = run(tmp, files)
    assert len(hits(findings, "include-order")) == 1, findings


def test_no_rand_flags_rand_call(tmp: Path) -> None:
    findings = run(tmp, unit("dsp", "x", "int f() { return rand(); }\n"))
    assert len(hits(findings, "no-rand")) == 1, findings


def test_lexer_ignores_comments_and_strings(tmp: Path) -> None:
    body = ('// rand() in a comment\n'
            '/* rand() in a\n   block comment */\n'
            'const char* s = "rand()";\n'
            'const char* r = R"(rand())";\n')
    findings = run(tmp, unit("dsp", "x", body))
    assert hits(findings, "no-rand") == [], \
        [f.render() for f in findings]


def test_checked_access_without_guard(tmp: Path) -> None:
    findings = run(tmp, unit("dsp", "x",
                             "int f(V& v) { return v.front(); }\n"))
    assert len(hits(findings, "checked-access")) == 1, findings


def test_checked_access_with_guard_is_clean(tmp: Path) -> None:
    body = ("int f(V& v) {\n"
            "  if (v.empty()) return 0;\n"
            "  return v.front();\n"
            "}\n")
    findings = run(tmp, unit("dsp", "x", body))
    assert hits(findings, "checked-access") == [], findings


def test_legacy_stf_lint_checked_escape_still_works(tmp: Path) -> None:
    body = "int f(V& v) { return v.front(); }  // stf-lint: checked\n"
    findings = run(tmp, unit("dsp", "x", body))
    assert hits(findings, "checked-access") == [], findings


def test_test_coverage_unreferenced_unit(tmp: Path) -> None:
    files = unit("dsp", "x")
    files["tests/x_test.cpp"] = "// nothing relevant\n"
    findings = run(tmp, files)
    assert len(hits(findings, "test-coverage")) == 1, findings


def test_raw_thread_outside_core(tmp: Path) -> None:
    body = "void f() { std::thread t([] {}); t.join(); }\n"
    findings = run(tmp / "a", unit("sigtest", "x", body))
    assert len(hits(findings, "raw-thread")) == 1, findings
    findings = run(tmp / "b", unit("core", "y", body))
    assert hits(findings, "raw-thread") == [], findings
    # The service layer's I/O threads are the second sanctioned home.
    findings = run(tmp / "c", unit("service", "z", body))
    assert hits(findings, "raw-thread") == [], findings


def test_blocking_io_confined_to_net(tmp: Path) -> None:
    body = ("int f() { return socket(2, 1, 0); }\n"
            "int g(int fd, void* b) { return recv(fd, b, 8, 0); }\n")
    findings = run(tmp / "a", unit("service", "x", body))
    assert len(hits(findings, "blocking-io-confinement")) == 2, findings
    findings = run(tmp / "b", unit("net", "y", body))
    assert hits(findings, "blocking-io-confinement") == [], findings


def test_blocking_io_headers_and_member_calls(tmp: Path) -> None:
    # The socket headers are banned outside src/net/ too...
    files = unit("sigtest", "x")
    files["src/sigtest/x.cpp"] = ('#include "sigtest/x.hpp"\n\n'
                                  "#include <sys/socket.h>\n")
    findings = run(tmp / "a", files)
    assert len(hits(findings, "blocking-io-confinement")) == 1, findings
    # ...but member calls and qualified wrappers are not raw syscalls.
    body = ("void f(S& s) { s.send(1); s.connect(); }\n"
            "void g() { stf::net::poll(); auto b = std::bind(f); }\n")
    findings = run(tmp / "b", unit("service", "y", body))
    assert hits(findings, "blocking-io-confinement") == [], findings


def test_file_io_confined_to_store(tmp: Path) -> None:
    body = ('void f() { std::ofstream out("x.bin"); out << 1; }\n'
            'bool g() { return std::filesystem::exists("x.bin"); }\n')
    findings = run(tmp / "a", unit("sigtest", "x", body))
    assert len(hits(findings, "file-io-confinement")) == 2, findings
    findings = run(tmp / "b", unit("store", "y", body))
    assert hits(findings, "file-io-confinement") == [], findings


def test_file_io_headers_and_lookalikes(tmp: Path) -> None:
    # The file-I/O headers are banned outside src/store/ too...
    files = unit("service", "x")
    files["src/service/x.cpp"] = ('#include "service/x.hpp"\n\n'
                                  "#include <fstream>\n")
    findings = run(tmp / "a", files)
    assert len(hits(findings, "file-io-confinement")) == 1, findings
    # ...but stringstreams, member .open() calls and words merely
    # containing "fopen" are not filesystem access.
    body = ("void f() { std::stringstream ss; ss << 1; }\n"
            "void g(S& s) { s.fopen(); my_fopen(); }\n")
    findings = run(tmp / "b", unit("service", "y", body))
    assert hits(findings, "file-io-confinement") == [], findings


def test_no_empty_catch_outside_core(tmp: Path) -> None:
    body = "void f() { try { g(); } catch (...) {} }\n"
    findings = run(tmp, unit("sigtest", "x", body))
    assert len(hits(findings, "no-empty-catch")) == 1, findings


# ---------------------------------------------------------------------------
# Determinism rules
# ---------------------------------------------------------------------------


def test_nondet_source_flagged_outside_telemetry(tmp: Path) -> None:
    body = "int f() { return std::random_device{}(); }\n"
    findings = run(tmp, unit("stats", "x", body))
    assert len(hits(findings, "nondet-source")) == 1, findings


def test_nondet_source_telemetry_clock_is_exempt(tmp: Path) -> None:
    body = ("std::uint64_t now() {\n"
            "  return std::chrono::steady_clock::now()"
            ".time_since_epoch().count();\n"
            "}\n")
    findings = run(tmp / "a", unit("core", "telemetry", body))
    assert hits(findings, "nondet-source") == [], findings
    findings = run(tmp / "b", unit("sigtest", "x", body))
    assert len(hits(findings, "nondet-source")) == 1, findings


def test_rng_engine_confinement_flags_library_engines(tmp: Path) -> None:
    body = ("std::mt19937_64 eng_;\n"
            "std::mt19937 small_;\n"
            "std::default_random_engine d_;\n"
            "std::uint64_t seed() { return std::random_device{}(); }\n")
    findings = run(tmp, unit("sigtest", "x", body))
    assert len(hits(findings, "rng-engine-confinement")) == 4, findings


def test_rng_engine_confinement_exempts_rng_and_lookalikes(tmp: Path) -> None:
    engine = "std::mt19937_64 reference_;\n"
    findings = run(tmp / "a", unit("stats", "rng", engine))
    assert hits(findings, "rng-engine-confinement") == [], findings
    findings = run(tmp / "b", unit("stats", "sampling", engine))
    assert len(hits(findings, "rng-engine-confinement")) == 1, findings
    # Comments, strings and unrelated names are not engines.
    body = ("// std::mt19937_64 in a comment\n"
            "const char* k = \"std::random_device\";\n"
            "stf::stats::Mt19937_64 ok_;\n")
    findings = run(tmp / "c", unit("sigtest", "y", body))
    assert hits(findings, "rng-engine-confinement") == [], findings


def test_pointer_order_keyed_container(tmp: Path) -> None:
    findings = run(tmp / "a", unit("sigtest", "x",
                                   "std::set<Device*> live_;\n"))
    assert len(hits(findings, "pointer-order")) == 1, findings
    findings = run(tmp / "b", unit("sigtest", "y",
                                   "std::set<std::string> names_;\n"))
    assert hits(findings, "pointer-order") == [], findings


def test_unordered_export_stream_in_loop(tmp: Path) -> None:
    body = ("std::unordered_map<std::string, int> m;\n"
            "void dump(std::ostream& os) {\n"
            "  for (const auto& [k, v] : m) {\n"
            "    os << k;\n"
            "  }\n"
            "}\n")
    findings = run(tmp, unit("sigtest", "x", body))
    assert len(hits(findings, "unordered-export")) == 1, findings


def test_unordered_export_single_statement_body_does_not_peek(
        tmp: Path) -> None:
    # The collect-then-sort idiom: the one-statement loop body must not be
    # widened into the following lines (which legitimately throw).
    body = ("std::unordered_map<std::string, int> m;\n"
            "void check() {\n"
            "  std::vector<std::string> names;\n"
            "  for (const auto& [k, v] : m) names.push_back(k);\n"
            "  std::sort(names.begin(), names.end());\n"
            "  for (const auto& n : names)\n"
            "    if (bad(n)) throw std::runtime_error(n);\n"
            "}\n")
    findings = run(tmp, unit("sigtest", "x", body))
    assert hits(findings, "unordered-export") == [], \
        [f.render() for f in findings]


def test_raw_mutex_in_core_and_dsp_only(tmp: Path) -> None:
    body = "std::mutex m_;\n"
    findings = run(tmp / "a", unit("core", "x", body))
    assert len(hits(findings, "raw-mutex")) == 1, findings
    findings = run(tmp / "b", unit("dsp", "y", body))
    assert len(hits(findings, "raw-mutex")) == 1, findings
    findings = run(tmp / "c", unit("sigtest", "z", body))
    assert hits(findings, "raw-mutex") == [], findings


def test_simd_confinement_flags_intrinsics_outside_wrapper(tmp: Path) -> None:
    body = ("#include <immintrin.h>\n"
            "__m256d v = _mm256_add_pd(a, b);\n"
            "float64x2_t w = vld1q_f64(p);\n")
    findings = run(tmp, unit("dsp", "kern", body))
    assert len(hits(findings, "simd-confinement")) == 3, \
        [f.render() for f in findings]


def test_simd_confinement_wrapper_and_suppression_exempt(tmp: Path) -> None:
    files = unit("core", "simd",
                 header_extra="#include <immintrin.h>\n"
                              "__m256d v = _mm256_setzero_pd();\n")
    files["src/rf/probe.hpp"] = (
        HEADER_OK +
        "// stf-analyze: allow(simd-confinement) -- pedagogical example\n"
        "using packd = __m256d;\n")
    files["tests/probe_test.cpp"] = '// include "rf/probe.hpp"\n'
    findings = run(tmp, files)
    assert hits(findings, "simd-confinement") == [], \
        [f.render() for f in findings]


API_BODY_NO_CONTRACT = ("int frob(int x) {\n"
                        + "  x += 1;\n" * 9 +
                        "  return x;\n"
                        "}\n")


def test_contract_side_effect_flags_mutation_inside_macro(tmp: Path) -> None:
    body = (
        "void Server::start() {\n"
        "  STF_REQUIRE(!started_.exchange(true), \"started twice\");\n"
        "}\n"
        "void g(int& n, std::vector<int>& v) {\n"
        "  STF_ASSERT(n++ < 4, \"n\");\n"
        "  STF_ENSURE(v.size() > 0 &&\n"
        "                 (n = 3) > 0, \"spans lines\");\n"
        "}\n")
    findings = hits(run(tmp, unit("service", "server", body)),
                    "contract-side-effect")
    assert [f.line for f in findings] == [4, 7, 8], \
        [f.render() for f in findings]
    assert "exchange" in findings[0].message, findings[0].message


def test_contract_side_effect_ignores_comparisons(tmp: Path) -> None:
    body = (
        "void f(int a, int b, const std::vector<int>& v) {\n"
        "  STF_REQUIRE(a == b && a <= b && a != b && a >= b, \"x = y++\");\n"
        "  STF_ASSERT(v.size() >= 1 && p->n == 0, \"cmp\");\n"
        "  started_.exchange(true);\n"
        "}\n")
    findings = run(tmp, unit("service", "server", body))
    assert hits(findings, "contract-side-effect") == [], \
        [f.render() for f in findings]


def test_api_contract_missing_is_flagged(tmp: Path) -> None:
    files = unit("sigtest", "x", API_BODY_NO_CONTRACT,
                 header_extra="int frob(int x);\n")
    findings = run(tmp, files)
    assert len(hits(findings, "api-contract")) == 1, findings


def test_api_contract_satisfied_by_require(tmp: Path) -> None:
    body = API_BODY_NO_CONTRACT.replace(
        "int frob(int x) {\n",
        'int frob(int x) {\n  STF_REQUIRE(x > 0, "frob: x");\n')
    files = unit("sigtest", "x", body,
                 header_extra="int frob(int x);\n")
    findings = run(tmp, files)
    assert hits(findings, "api-contract") == [], findings


def test_api_contract_skips_undeclared_and_small_functions(
        tmp: Path) -> None:
    # Not declared in the unit's header -> internal helper, exempt; tiny
    # bodies are under the size floor.
    findings = run(tmp / "a", unit("sigtest", "x", API_BODY_NO_CONTRACT))
    assert hits(findings, "api-contract") == [], findings
    files = unit("sigtest", "y", "int tiny(int x) { return x; }\n",
                 header_extra="int tiny(int x);\n")
    findings = run(tmp / "b", files)
    assert hits(findings, "api-contract") == [], findings


def test_api_contract_inline_ctor_body_does_not_swallow_followers(
        tmp: Path) -> None:
    # A `{}` body on the signature line used to make the rule scan to the
    # next column-zero brace, claiming the following functions as the body.
    body = ("Thing::Thing(std::vector<int> v)\n"
            "    : v_(std::move(v)) {}\n"
            "\n"
            "namespace {\n"
            "int helper(int x) {\n"
            + "  x += 1;\n" * 9 +
            "  return x;\n"
            "}\n"
            "}  // namespace\n")
    files = unit("sigtest", "x", body,
                 header_extra="  Thing(std::vector<int> v);\n")
    findings = run(tmp, files)
    assert hits(findings, "api-contract") == [], \
        [f.render() for f in findings]


# ---------------------------------------------------------------------------
# Suppressions, baseline, CLI
# ---------------------------------------------------------------------------


def test_suppression_covers_own_and_next_line(tmp: Path) -> None:
    body = ("// stf-analyze: allow(no-rand) -- test fixture\n"
            "int f() { return rand(); }\n"
            "int g() { return rand(); }\n")
    findings = run(tmp, unit("dsp", "x", body))
    flagged = hits(findings, "no-rand")
    assert len(flagged) == 1, [f.render() for f in findings]
    assert "g()" not in flagged[0].message


def test_suppression_lists_multiple_rules(tmp: Path) -> None:
    body = ("int f(V& v) {  // stf-analyze: allow(no-rand, checked-access)\n"
            "  return v.front() + rand();\n"
            "}\n")
    findings = run(tmp, unit("dsp", "x", body))
    assert hits(findings, "no-rand") == [], findings
    assert hits(findings, "checked-access") == [], findings


def test_baseline_roundtrip_suppresses_known_findings(tmp: Path) -> None:
    write_tree(tmp, unit("dsp", "x", "int f() { return rand(); }\n"))
    baseline = tmp / "baseline.json"
    rc, _ = run_main([str(tmp), "--baseline", str(baseline),
                      "--write-baseline"])
    assert rc == 0
    assert len(json.loads(baseline.read_text())["entries"]) == 1

    rc, out = run_main([str(tmp), "--baseline", str(baseline)])
    assert rc == 0, out
    assert "[baselined]" in out, out

    # Without the baseline the same finding is fatal.
    rc, out = run_main([str(tmp)])
    assert rc == 1, out


def test_json_output_schema(tmp: Path) -> None:
    write_tree(tmp, unit("dsp", "x", "int f() { return rand(); }\n"))
    report = tmp / "findings.json"
    rc, _ = run_main([str(tmp), "--json", str(report)])
    assert rc == 1
    data = json.loads(report.read_text())
    assert data["total"] == 1 and data["fatal"] == 1, data
    entry = data["findings"][0]
    for key in ("rule", "file", "line", "severity", "baselined", "message"):
        assert key in entry, entry
    assert entry["rule"] == "no-rand", entry


def test_clean_tree_exits_zero_with_ok_banner(tmp: Path) -> None:
    write_tree(tmp, unit("dsp", "clean"))
    rc, out = run_main([str(tmp)])
    assert rc == 0, out
    assert "OK" in out, out


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        with tempfile.TemporaryDirectory() as td:
            tmp = Path(td)
            try:
                fn(tmp)
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    if failures:
        print(f"stf_analyze_test: {failures} failure(s)")
        return 1
    print(f"stf_analyze_test: {len(tests)} tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
