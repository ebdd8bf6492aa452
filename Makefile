# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Small-size engine benchmarks (E11 and the E14 columnar-vs-compiled
# A/B at ≈100k facts), writes BENCH_results.json.
bench-smoke:
	dune exec bench/main.exe -- --json --smoke E11 E14

# Differential fuzzing across the engine matrix (DESIGN.md §8); exits
# nonzero with a shrunk repro on any cross-engine discrepancy, e.g.
# `make fuzz CASES=1000`.
CASES ?= 500
fuzz:
	dune exec bin/chasectl.exe -- fuzz --cases $(CASES) --seed 42

# Golden-transcript conversation through `chasectl serve` over stdio
# (docs/SERVICE.md).  wall_ms is the only nondeterministic reply field;
# normalize it before diffing.
serve-smoke:
	dune build bin/chasectl.exe
	./_build/default/bin/chasectl.exe serve < test/serve/script.jsonl \
	  | sed -E 's/"wall_ms": *[0-9.eE+-]+/"wall_ms": 0/g' \
	  | diff -u test/serve/golden.jsonl -

examples:
	dune exec examples/quickstart.exe
	dune exec examples/data_exchange.exe
	dune exec examples/ontology_reasoning.exe
	dune exec examples/termination_gallery.exe
	dune exec examples/sticky_analysis.exe
	dune exec examples/fairness_demo.exe
	dune exec examples/chase_variants.exe

gallery:
	dune exec examples/termination_gallery.exe

# API docs via odoc (warnings are fatal; see the root `dune` env stanza).
doc:
	dune build @doc

clean:
	dune clean

.PHONY: all test bench bench-smoke fuzz serve-smoke examples gallery doc clean
