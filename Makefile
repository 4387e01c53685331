.PHONY: all build test loc bench-smoke bench-hotpath bench-axis torture-smoke server-smoke failover-smoke cluster-smoke nettorture-smoke query-smoke migrate-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Net line count of the OCaml sources (.ml/.mli) under lib, bin, bench,
# test and perfbench: one total, the figure a change that deletes code
# reports.
loc:
	@find lib bin bench test perfbench \( -name '*.ml' -o -name '*.mli' \) -print0 \
	  | xargs -0 cat | wc -l

# A fast end-to-end proof that the parallel evaluation runtime works and
# stays byte-identical to the sequential path: the Figure 7 matrix on two
# domains, diffed against the sequential output.
bench-smoke: build
	dune exec bin/xmlrepro.exe -- matrix > _build/matrix-seq.out
	dune exec bin/xmlrepro.exe -- matrix --jobs 2 > _build/matrix-par.out
	diff _build/matrix-seq.out _build/matrix-par.out

# The measurement hot path benchmark: times the incremental-statistics
# kernels and runs the paranoid cross-check over the whole registry.
# Exits non-zero if the order check fails or any tracked statistic
# diverges from its recomputation. It prints only; it writes no file.
bench-hotpath: build
	dune exec bench/main.exe -- hotpath

# The incremental axis index's upkeep on one seeded insert/delete
# sequence (with a hot region below the root) at 20k and ~45k nodes.
# Exits non-zero if ranks renumbered per op at ~45k exceed 1.25x the 20k
# figure or 2 log2 of either document's size, or if either index differs
# from a rebuild. Timings are printed, not gated; it writes no file.
bench-axis: build
	dune exec bench/main.exe -- axis

# Crash-consistency torture: a small seeded workload, a power cut at every
# syscall boundary, recovery verified on every surviving disk image. Exits
# non-zero on any durability violation. The negative control reintroduces
# the missing directory fsync: the command must report it by exiting
# exactly 1 (not 0, and not 125, an uncaught exception).
torture-smoke: build
	dune exec bin/xmlrepro.exe -- torture --seeds 2 --ops 200
	dune exec bin/xmlrepro.exe -- torture --seeds 1 --ops 30 --schemes QED \
	  --unsafe-no-dir-fsync > _build/torture-control.out; status=$$?; \
	  tail -n 2 _build/torture-control.out; test $$status -eq 1

# Network server smoke: an in-process loopback serve driven by the seeded
# load generator (6 clients ganged up on 2 shared documents so the
# group-commit flusher has appends to coalesce — any protocol error
# fails the run), then offline recovery of a journal the server wrote,
# proving its on-disk state is an ordinary durable journal.
server-smoke: build
	rm -rf _build/server-smoke
	dune exec bin/xmlrepro.exe -- loadgen --self-serve --root _build/server-smoke \
	  --clients 6 --docs 2 --ops 10000 --seed 1 --schemes QED,Vector,ORDPATH \
	  --commit-interval 800 --commit-max 32
	dune exec bin/xmlrepro.exe -- journal recover _build/server-smoke/doc-0.journal

# Replication failover torture: a primary/replica pair on simulated file
# systems, a power cut at every syscall boundary on either side, the
# promoted replica checked against exactly the acknowledged durable
# prefix. Exits non-zero on any violation; the negative control without
# the directory fsync must exit exactly 1, as for torture-smoke.
failover-smoke: build
	dune exec bin/xmlrepro.exe -- failover --seeds 2 --ops 120
	dune exec bin/xmlrepro.exe -- failover --seeds 1 --ops 60 --schemes QED \
	  --unsafe-no-dir-fsync > _build/failover-control.out; status=$$?; \
	  tail -n 2 _build/failover-control.out; test $$status -eq 1

# Cluster smoke: 3 shards with one replica each as real child processes,
# a mixed load routed by document hash (any protocol error fails the
# run), replication drained, then SIGKILL of a primary — the promoted
# replica must serve the same bytes and take writes.
cluster-smoke: build
	rm -rf _build/cluster-smoke
	dune exec bin/xmlrepro.exe -- cluster --root _build/cluster-smoke \
	  --shards 3 --replicas 1 --smoke --smoke-ops 600 \
	  --commit-interval 1000 --commit-max 32

# Network-fault torture smoke: the exactly-once update path with a
# deterministic fault (drop/reset/truncate/partition/delay) injected at a
# sampled set of socket-syscall coordinates, plus the dedup-disabled
# negative control and the crash-recovery dedup check. Exits non-zero on
# any double- or lost-apply, or if the control fails to catch doubles.
nettorture-smoke: build
	dune exec bin/xmlrepro.exe -- nettorture --ops 8 --seeds 1 --points 120

# Wire-query smoke: a paranoid in-process server (every served XPath/twig
# answer re-verified against the scan evaluator over the same snapshot
# rows) under the read-heavy 95/5 query/mutation mix. Any protocol error
# or paranoid divergence fails the run. The second pass serves
# 2500-node documents, where about half the nodes sit under a same-name
# ancestor, so the structural joins run over long streams of nested
# contexts; the scan cross-check makes it the slow half (about 14 s on a
# 2-core host).
query-smoke: build
	rm -rf _build/query-smoke _build/query-smoke-deep
	dune exec bin/xmlrepro.exe -- loadgen --self-serve --paranoid \
	  --root _build/query-smoke --clients 4 --docs 2 --ops 4000 --seed 3 \
	  --nodes 60 --query-pct 95 --schemes QED,ORDPATH
	dune exec bin/xmlrepro.exe -- loadgen --self-serve --paranoid \
	  --root _build/query-smoke-deep --clients 2 --docs 2 --ops 240 --seed 5 \
	  --nodes 2500 --query-pct 95 --schemes QED,ORDPATH

# Schema-migration smoke: the offline per-scheme storm (every operator
# kind, oracle-replay verified on a byte-identical twin, every kept
# standing-query answer re-checked by a full re-evaluation — any
# disagreement or mismatch exits non-zero), then migration batches over
# the wire: a paranoid self-served load with every 25th step a wrap
# migration, proving the migrate/* gauges move, the batch path serves
# cleanly under load, and survival keeps no stale answer.
migrate-smoke: build
	rm -rf _build/migrate-smoke
	dune exec bin/xmlrepro.exe -- migrate --steps 24 --nodes 120
	dune exec bin/xmlrepro.exe -- loadgen --self-serve --paranoid \
	  --root _build/migrate-smoke --clients 4 --ops 2000 --seed 4 \
	  --nodes 60 --migrate-every 25 --schemes QED,ORDPATH

check: build test bench-smoke bench-hotpath bench-axis torture-smoke server-smoke failover-smoke cluster-smoke nettorture-smoke query-smoke migrate-smoke

clean:
	dune clean
