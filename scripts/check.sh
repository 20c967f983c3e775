#!/bin/sh
# Tier-1 verification: formatting, build, vet, race-enabled tests (with a
# per-package watchdog so a hung test cannot wedge CI; the bench/ harness
# module included), a fuzz smoke over the hardened parsers, the
# speculative-update kernels and the ideal tables, and the static
# analyzer over every built-in workload (zero error diagnostics
# required). Run from the repository root.
set -eu

echo "==> gofmt -l (every Go source file formatted)"
unformatted=$(gofmt -l ./*.go bench cmd examples internal scripts)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> detlint (determinism self-lint over our own source)"
go run ./scripts/detlint

echo "==> go test -race -timeout 10m ./..."
go test -race -timeout 10m ./...

echo "==> trace memo growth race, replay and timing views (20 runs: interleavings are probabilistic)"
go test -race -count 20 -timeout 10m -run '^(TestMemoConcurrentGrowth|TestMemoTimingConcurrentGrowth)$' ./internal/workload >/dev/null

echo "==> bench harness: go vet + go test -race (its own module, built against this checkout)"
(cd bench && go vet ./... && go test -race -timeout 10m ./...)

echo "==> fuzz smoke (5s per target)"
go test ./internal/core -run '^$' -fuzz FuzzRAS -fuzztime 5s >/dev/null
go test ./internal/core -run '^$' -fuzz FuzzSpecSessionMatchesReference -fuzztime 5s >/dev/null
go test ./internal/core -run '^$' -fuzz FuzzIdealMatchesReference -fuzztime 5s >/dev/null
go test ./internal/trace -run '^$' -fuzz FuzzColumnarRead -fuzztime 5s >/dev/null
go test ./internal/mserve -run '^$' -fuzz FuzzEvalDecode -fuzztime 5s >/dev/null
go test ./internal/engine -run '^$' -fuzz FuzzParse -fuzztime 5s >/dev/null

echo "==> mlint -w all"
go run ./cmd/mlint -w all >/dev/null

echo "==> mlint fault spec check"
go run ./cmd/mlint -w exprc -fault all=1e-3,seed=7 >/dev/null

echo "==> mlint predictor spec check"
go run ./cmd/mlint -w exprc -pred composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3 >/dev/null

echo "==> examples (every examples/* program runs to completion)"
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

echo "==> mbench smoke (truncated traces): the same tables at -workers 1 and -workers 4"
# Durations are wall-clock, so the "[… done in …]" lines and the trailing
# "Run summary" table are dropped before the two outputs are compared.
MB_TMP="${TMPDIR:-/tmp}"
for n in 1 4; do
	go run ./cmd/mbench -exp all -steps 6000 -timing 4000 -workers "$n" >"$MB_TMP/mbench-w$n.out"
	sed -e '/^\[.* done in .*\]$/d' -e '/^## Run summary$/,$d' "$MB_TMP/mbench-w$n.out" >"$MB_TMP/mbench-w$n.tables"
done
cmp "$MB_TMP/mbench-w1.tables" "$MB_TMP/mbench-w4.tables"
rm -f "$MB_TMP"/mbench-w[14].out "$MB_TMP"/mbench-w[14].tables

echo "==> obs smoke (-metrics-out / -trace-out produce valid JSON)"
OBS_TMP="${TMPDIR:-/tmp}"
go run ./cmd/mbench -exp fig7 -steps 6000 \
	-metrics-out "$OBS_TMP/mbench-metrics.json" \
	-trace-out "$OBS_TMP/mbench-trace.json" >/dev/null
go run ./scripts/checkjson "$OBS_TMP/mbench-metrics.json" "$OBS_TMP/mbench-trace.json" >/dev/null
rm -f "$OBS_TMP/mbench-metrics.json" "$OBS_TMP/mbench-trace.json"

echo "==> speculative-update smoke (spec grammar end-to-end, rollback counters exported; composed timing and exit replay)"
# One replay + timing run in spec mode must actually roll back: checkjson
# asserts the core.spec.rollbacks counter is present and non-zero, so a
# regression that silently idealizes the run fails the gate. The
# specupdate experiment grid itself runs under "mbench -exp all" above.
go run ./cmd/msim -w exprc \
	-pred composed:path:d7-o5-l6-c6-f3:leh2:ras32:cttb:d7-o4-l4-c5-f3:spec:rlat8 \
	-steps 20000 -timing -metrics-out "$OBS_TMP/msim-spec.json" >/dev/null 2>&1
go run ./scripts/checkjson -min-counter core.spec.rollbacks=1 \
	-min-counter core.spec.repair_frames=1 "$OBS_TMP/msim-spec.json" >/dev/null
rm -f "$OBS_TMP/msim-spec.json"
# The same gate on an exit-mode replay, which runs the fused exit kernel
# on its own: a kernel that silently stops repairing fails here.
go run ./cmd/msim -w exprc -pred path:d7-o5-l6-c6-f3:leh2:dlat4:spec \
	-steps 20000 -metrics-out "$OBS_TMP/msim-spec-exit.json" >/dev/null 2>&1
go run ./scripts/checkjson -min-counter core.spec.rollbacks=1 \
	-min-counter core.spec.repair_frames=1 "$OBS_TMP/msim-spec-exit.json" >/dev/null
rm -f "$OBS_TMP/msim-spec-exit.json"

echo "==> mserve end-to-end smoke (daemon: cold/warm grid, SSE progress, statusz, 413, 429-only burst, SIGTERM drain)"
go run ./scripts/mservesmoke "$OBS_TMP/mserve-metrics.json" "$OBS_TMP/mserve-statusz.json" >/dev/null
go run ./scripts/checkjson "$OBS_TMP/mserve-metrics.json" "$OBS_TMP/mserve-statusz.json" >/dev/null
rm -f "$OBS_TMP/mserve-metrics.json" "$OBS_TMP/mserve-statusz.json"

echo "==> trace file gate (deterministic record, valid file, file replay = streamed replay)"
# Recording twice must give identical bytes; the file must validate
# against the TFG; and replaying it must report the same real-PATH miss
# figures as streaming the same 20,000 steps straight from generation,
# so the file decode path agrees with the generation path.
MT_TMP="${TMPDIR:-/tmp}"
go run ./cmd/mtrace record -w boolmin -steps 20000 "$MT_TMP/mt-a.trace" >/dev/null
go run ./cmd/mtrace record -w boolmin -steps 20000 "$MT_TMP/mt-b.trace" >/dev/null
cmp "$MT_TMP/mt-a.trace" "$MT_TMP/mt-b.trace"
go run ./cmd/mtrace info -w boolmin "$MT_TMP/mt-a.trace" >/dev/null
file_misses=$(go run ./cmd/mtrace replay -w boolmin "$MT_TMP/mt-a.trace" |
	sed -n 's/^PATH-real(7-5-6-6(3),LEH-2bit) *\(.*misses (.*states)\)$/\1/p')
stream_misses=$(go run ./cmd/mtrace stream -w boolmin -steps 20000 |
	sed -n 's/^streamed .* through PATH-real(7-5-6-6(3),LEH-2bit): *\(.*misses (.*states)\)$/\1/p')
rm -f "$MT_TMP/mt-a.trace" "$MT_TMP/mt-b.trace"
if [ -z "$file_misses" ] || [ "$file_misses" != "$stream_misses" ]; then
	echo "trace file replay '$file_misses' != streamed replay '$stream_misses'" >&2
	exit 1
fi

echo "==> streamed spec replay = msim (mtrace stream runs the speculative session, never idealized)"
# The same :spec exit predictor over the same 20,000 boolmin steps must
# miss exactly as often streamed through mtrace as replayed by msim; an
# idealized stream (the spec flag dropped) misses less and fails here.
SPEC_PRED=path:d7-o5-l6-c6-f3:leh2:dlat4:spec
stream_spec=$(go run ./cmd/mtrace stream -w boolmin -steps 20000 -pred "$SPEC_PRED" |
	sed -n 's/^streamed .*misses (\([0-9]* \/ [0-9]*\),.*$/\1/p')
msim_spec=$(go run ./cmd/msim -w boolmin -steps 20000 -pred "$SPEC_PRED" 2>/dev/null |
	sed -n 's/^  exit miss rate .*(\([0-9]* \/ [0-9]*\))$/\1/p')
if [ -z "$stream_spec" ] || [ "$stream_spec" != "$msim_spec" ]; then
	echo "mtrace stream '$stream_spec' != msim '$msim_spec' for $SPEC_PRED" >&2
	exit 1
fi

echo "==> streaming replay smoke (10M+ steps, bounded heap, peak-heap gauge)"
# Six back-to-back passes of the full exprc trace: >10M prediction steps
# whose 12 B/step array-of-structs equivalent is ~120 MiB (over 3x the
# ceiling), replayed under a 32 MiB heap ceiling (the generate→replay
# pipeline never materializes a trace).
# The sampled peak lands in the metrics snapshot as a gauge; checkjson
# re-asserts the same 32 MiB ceiling on the exported value.
go run ./cmd/mtrace stream -w exprc -repeat 6 -max-heap-mb 32 -progress 2048 \
	-metrics-out "$OBS_TMP/mtrace-metrics.json" >/dev/null
go run ./scripts/checkjson -max-gauge mtrace.stream.peak_heap_bytes=33554432 \
	"$OBS_TMP/mtrace-metrics.json" >/dev/null
rm -f "$OBS_TMP/mtrace-metrics.json"

echo "==> benchmark smoke (one iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x . >/dev/null

echo "==> benchdiff regression gate (replay micro-benchmarks vs BENCH_baseline.json)"
# Short iterations and a generous time band: the gate is for order-of-
# magnitude time regressions and any allocation growth (allocs/op is
# deterministic and held tight regardless of machine). Three runs per
# benchmark, of which benchdiff keeps the best, so one run slowed by a
# loaded host or a stray GC does not fail the gate.
go run ./scripts/benchdiff -benchtime 2x -count 3 -time-tol 4 >/dev/null

echo "OK"
