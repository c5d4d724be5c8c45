#pragma once
/// \file bench_common.hpp
/// Shared helpers for the experiment benches (E1..E13): library/netlist
/// construction, uniform claim/shape-check reporting, wall-clock timing,
/// peak memory and the BENCH_*.json ledger writer.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "janus/netlist/cell_library.hpp"
#include "janus/netlist/generator.hpp"
#include "janus/scenario/scenario.hpp"
#include "janus/server/protocol.hpp"

namespace janus::bench {

inline std::shared_ptr<const CellLibrary> make_lib(const std::string& node = "28nm") {
    return std::make_shared<const CellLibrary>(
        make_default_library(*find_node(node)));
}

inline void banner(const char* id, const char* claimant, const char* claim) {
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, claimant);
    std::printf("claim: %s\n", claim);
    std::printf("==============================================================\n");
}

/// Prints one check line and returns `ok`, so a bench can gate its exit
/// code on the checks that must hold.
inline bool shape_check(const char* what, bool ok) {
    std::printf("SHAPE CHECK [%s]: %s\n", ok ? "PASS" : "FAIL", what);
    return ok;
}

/// Resolves a bare bench-file name (no directory part) to the repo root, so
/// the committed BENCH_*.json baselines are updated no matter which build
/// directory the bench runs from — previously the files silently landed in
/// the CWD (usually build/) and the repo-root baselines never refreshed.
/// Precedence: the JANUS_BENCH_OUT directory if set, else the nearest
/// ancestor of the CWD holding ROADMAP.md (the repo marker), else the CWD.
inline std::string resolve_bench_path(const std::string& file) {
    namespace fs = std::filesystem;
    if (file.find('/') != std::string::npos) return file;  // caller chose
    if (const char* env = std::getenv("JANUS_BENCH_OUT")) {
        if (env[0] != '\0') return (fs::path(env) / file).string();
    }
    const std::string root = scenario::find_repo_root();
    return root.empty() ? file : (fs::path(root) / file).string();
}

/// Read-modify-write of a shared machine-readable bench ledger such as
/// BENCH_route.json: one JSON object whose members are the benches'
/// entries, rendered one `"name": {payload}` entry per line
/// (JsonValue::dump_lines). Re-running a bench replaces its entry in place.
/// A missing file counts as `{}`; a malformed one throws naming the path
/// rather than being silently rewritten. Bare filenames resolve to the repo
/// root (resolve_bench_path); returns the path actually written.
inline std::string write_json_entry(const std::string& file,
                                    const std::string& name,
                                    const server::JsonValue& payload) {
    const std::string path = resolve_bench_path(file);
    server::JsonValue ledger;
    try {
        ledger = scenario::load_baseline(path);  // null when the file is missing
        ledger.set(name, payload);               // throws unless an object
    } catch (const server::ProtocolError& e) {
        throw std::runtime_error("bench ledger " + path + ": " + e.what());
    }
    std::ofstream out(path, std::ios::trunc);
    out << ledger.dump_lines();
    if (!out) throw std::runtime_error("bench ledger " + path + ": write failed");
    return path;
}

/// Wall milliseconds elapsed since `t0`.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Peak resident set size of this process in MiB, from VmHWM in
/// /proc/self/status (Linux); 0 where that is unavailable.
inline double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    return 0.0;
}

}  // namespace janus::bench
