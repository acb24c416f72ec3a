"""City-scale perf ledger: four workloads, one command, a per-layer
waterfall.  See ``benchmarks/perf/README.md``; ``BENCHMARK.json`` at the
repo root is the contract later performance PRs are judged by."""
