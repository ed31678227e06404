#!/usr/bin/env bash
# run_all.sh — reproducible quick pass over the whole evaluation:
#   1) verification half: gofmt/vet/build/test gate + race, examples,
#      hbplint and docs gates
#   2) grid half: quick experiment grid -> runs/<stamp>/{csv,logs} archive,
#      CSV sanity, -canon determinism, the full EXP14 grid digests against
#      benchmark/golden, an hbptrace -trace smoke run, and the EXP14
#      envelope grep
#
# Usage: bash scripts/run_all.sh [--verify-only|--grid-only] [outdir]
#   (default: both halves; default outdir: runs)
# This script is the one list of gates: CI runs its two halves as separate
# jobs (test = --verify-only, grid = --grid-only in ci.yml) and adds none of
# its own.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=all
case "${1:-}" in
--verify-only)
    MODE=verify
    shift
    ;;
--grid-only)
    MODE=grid
    shift
    ;;
esac
OUT="${1:-runs}"

# alternatives prints the top-level alternatives of the -run regex $1, each
# cut at its first '/' (the subtest part, which go test -list cannot see).
alternatives() {
    local re=$1 depth=0 cur="" ch i
    for ((i = 0; i < ${#re}; i++)); do
        ch=${re:i:1}
        case "$ch" in
        '(') depth=$((depth + 1)) ;;
        ')') depth=$((depth - 1)) ;;
        '|')
            if [ "$depth" -eq 0 ]; then
                echo "${cur%%/*}"
                cur=""
                continue
            fi
            ;;
        esac
        cur+=$ch
    done
    echo "${cur%%/*}"
}

# focused runs go test "$@", a gate with a -run regex, after checking with
# go test -list that every alternative of the regex names at least one test
# in the gate's packages: go test passes a -run that matches nothing, so a
# gate whose tests were deleted or renamed would otherwise pass silently.
focused() {
    local run="" prev="" a alt listed
    local pkgs=()
    for a in "$@"; do
        [ "$prev" = -run ] && run=$a
        case "$a" in .|./*) pkgs+=("$a") ;; esac
        prev=$a
    done
    listed=$(go test -list . "${pkgs[@]}")
    while read -r alt; do
        grep -E '^(Test|Fuzz|Benchmark|Example)' <<<"$listed" | grep -qE -- "$alt" || {
            echo "gate -run '$run': '$alt' names no test in ${pkgs[*]}" >&2
            exit 1
        }
    done < <(alternatives "$run")
    go test "$@"
}

if [ "$MODE" != grid ]; then
    echo "== gate: gofmt =="
    fmt=$(gofmt -l .)
    if [ -n "$fmt" ]; then
        echo "gofmt needed on:" >&2
        echo "$fmt" >&2
        exit 1
    fi

    echo "== gate: go vet =="
    go vet ./...
    # The matrix leaf has an amd64 assembly kernel; vetting the two packages
    # that use it for arm64 keeps the portable path compiling (cross-arch
    # vet builds nothing it has to download).
    GOARCH=arm64 go vet ./internal/algos/matmul/ ./internal/algos/strassen/

    echo "== gate: go build + go test =="
    go build ./...
    go test ./...

    echo "== gate: go test -race ./internal/rt (lock-free deque, parking, pool lifecycle) =="
    go test -race ./internal/rt/ ./internal/core/

    # rt hands a joined task frame to the next fork on the same worker:
    # random fork trees at p = 4 check every joined child's tag, and in the
    # ForkRange arm the range each fork was given, five schedules; a stale
    # or repeated Join panics, and a task or Run root that returns with a
    # fork unjoined raises where its panic would go, the pool serving the
    # next root.  The arena's one word-slab pool per worker is bounded with
    # a shared spill: slabs a thief takes and its victim releases stay within
    # the bound, on a pool, on two bare shards and through fj at complex128,
    # and a freed complex128 scratch comes back as int64 scratch on its
    # worker.  (The zero-allocation pins, rt's
    # Fork/ForkRange+Join and fj's Parallel/ForRange, skip their counts
    # under the detector, as the root pins do; go test ./... counts them.)
    focused -race -count=5 -run 'TestFrameReuseStress|TestForkJoinAllocatesNothing|TestDoubleJoinPanics|TestStaleJoinAfterReuse|TestUnjoinedForkPanics|TestForksAllocateNothing' ./internal/rt/ ./internal/fj/
    focused -race -run 'TestForkJoinAllocatesNothing|TestStolenScratchStaysBounded|TestSpillFeedsTheOtherShard|TestFreedScratchServesEveryType|TestStolenC128ScratchStaysBounded' ./internal/rt/ ./internal/arena/ ./internal/fj/

    echo "== gate: -race over the fj frontend + arena + cross-backend equality =="
    # The fj real lowering runs genuinely parallel pools and the equality gate
    # compares its outputs against the sim lowering byte for byte; the arena
    # tests and the root alloc-regression pins run here too, because the race
    # build is where released slabs are poison-filled.  FuzzInvokeCodec's
    # committed seed corpus (every kernel run on its wire words in place) runs
    # as ordinary test cases under the detector.
    focused -race -run 'Test|FuzzInvokeCodec' ./internal/fj/ ./internal/arena/ ./internal/algos/registry/
    focused -race -run 'TestSortAllocRegression|TestKernelAllocRegression' .
    # The real ForRange splits on demand, so where a loop splits depends on
    # timing: one schedule is not enough, run the loop gates (exactly-once
    # visits, forks per steal) five times.
    focused -race -count=5 -run 'TestForRange' ./internal/fj/
    # The bulk ops (fj.Copy, Sum, Prefix) and the kernel leaves ported onto
    # them run on ranges that workers split on demand: the op contract and
    # the ported kernels' real-lowering gates run under the detector, three
    # schedules.
    focused -race -count=3 -run 'TestOpsMatchTheirLoops|TestOpsRefuseMismatchedLengths' ./internal/fj/
    focused -race -count=3 -run 'TestFJPrefixRealMatchesSerial|TestFJSortRealMatchesSerial|TestFJMulRealMatchesNaive|TestFFTLeafCutoffInvariant' ./internal/algos/scan/ ./internal/algos/sortx/ ./internal/algos/spms/ ./internal/algos/strassen/ ./internal/algos/fft/
    # listrank's sublist walks write rank words scattered over the list from
    # every worker; its edge shapes run under the detector, three schedules.
    focused -race -count=3 -run TestFJRank ./internal/algos/listrank/
    # The transpose leaf writes whole destination rows from every worker;
    # shapes on both sides of its 64×64 leaf run under the detector too.
    focused -race -count=3 -run TestFJTranspose ./internal/algos/mat/
    # The sim lowering records a run serially, reusing its task contexts;
    # its reuse, panic and rerun gates run under the detector too.
    focused -race -count=5 -run 'TestPanicTearsDown|TestTornDown|TestSimCoroutine' ./internal/fj/
    # A forked task's panic is raised at its Join, whichever worker ran it:
    # a stolen task's and one a helper ran inside an unrelated Join (rt),
    # both fj lowerings at p = 1 and 2, a codec block a thief codes (serve);
    # a panic leaves a Parallel or ForRange only after its forks have
    # joined, a stolen half included (fj).
    focused -race -count=5 -run 'TestStolenPanicRaisedAtJoin|TestHelperJoinSurvivesForeignPanic|TestUserPanicPropagates|TestPanicJoinsForRangeForks|TestPanicJoinsStolenHalf|TestStolenBlockPanicFailsItsRequest' ./internal/rt/ ./internal/fj/ ./internal/serve/

    echo "== gate: -race over the simulated caches, coherence protocol and schedulers =="
    # FuzzSetMatchesReference's seeds replay the slab LRU against the
    # map-and-list reference model as ordinary test cases.
    focused -race -run 'Test|FuzzSetMatchesReference' ./internal/cache/ ./internal/machine/ ./internal/sched/

    echo "== gate: -race over the kernel service + fuzz seed corpora =="
    # The serve battery exercises concurrent clients, cancellation,
    # backpressure, the streaming /batch protocol (first response while a
    # later request is still held, a window cut by the admission bound), the
    # small-not-behind-large gate and the recycled wire buffers under
    # concurrent /invoke + /batch; fuzz seed
    # corpora run as ordinary test cases here, so every committed FuzzService,
    # FuzzDecodeRequest (the wire codec against encoding/json), FuzzWireWords
    # and FuzzKWayMerge seed stays green (the spms corpus drives the k-way
    # merge on the real backend at p=4).
    focused -race -run 'Test|FuzzService|FuzzDecodeRequest|FuzzWireWords|FuzzKWayMerge' ./internal/serve/ ./internal/algos/spms/

    echo "== gate: -race over the blocked wire codec on the service pool, three schedules =="
    # Payloads over one codec block are parsed and formatted as an fj loop on
    # the service's pool, split on demand, so where blocks land depends on
    # timing: blocked == unblocked (every block size, inline and pooled), a
    # block's panic failing only its request, small requests coding inline in
    # their root, one root per request, the /batch admission bound, and
    # recycled buffers and word slabs under all nine kernels.
    focused -race -count=3 -run 'TestBlockedCodecMatchesUnblocked|TestCodecPanicFailsItsRequest|TestSmallRequestsCodeInline|TestRecycledBuffersNoBleed|TestOneRootPerRequest|TestBatchCappedAtQueueBound|FuzzDecodeRequest|FuzzWireWords' ./internal/serve/

    echo "== gate: -race over concurrently executing grid cells =="
    # A golden subset at -parallel 8 is the only place experiment cells run
    # concurrently; race-check it without paying for the full suite under -race.
    focused -race -run 'TestGoldenRowsIdenticalAcrossParallelism/(EXP05|EXP07|EXP13|EXP15|EXP16)' ./internal/bench/

    echo "== gate: -race over record once, replay the grid (replay == live, concurrent claims on one key, refused keys live) =="
    # EXP14's cells share one recording per key: the golden EXP14 subset at
    # -parallel 8 claims, records and replays keys concurrently, the replay
    # gate replays every EXP14 kernel under another (p, scheduler, padding)
    # than it was recorded under, and a key whose recording is refused runs
    # every cell live and keeps no tape.
    focused -race -run 'TestEXP14ReplayMatchesLive|TestTapesRunRefusedKeysLive|TestGoldenRowsIdenticalAcrossParallelism/EXP14' ./internal/bench/

    echo "== gate: benchmark smoke (every benchmark runs one iteration) =="
    go test -run '^$' -bench . -benchtime 1x . ./internal/algos/sortutil/ ./internal/serve/ >/dev/null

    echo "== gate: examples (each exits 0 and prints its result line) =="
    for ex in "fftpoly:product coefficient of x^500 = 218" \
        "graph:component sizes: ring=40 path=40 blob=20 isolates=20" \
        "matmul:RM→BI→(gap)RM round trip: identical=true" \
        "quickstart:result correct: true"; do
        out=$(go run "./examples/${ex%%:*}")
        grep -qF -- "${ex#*:}" <<<"$out" || {
            echo "examples/${ex%%:*} printed no line '${ex#*:}'" >&2
            exit 1
        }
    done

    echo "== gate: hbplint (falseshare/atomicmix/fjdiscipline/determinism/grainaudit) =="
    go run ./cmd/hbplint -stats ./...

    echo "== gate: docs (package comments + markdown links) =="
    bash scripts/check_docs.sh
fi

if [ "$MODE" != verify ]; then
    echo "== quick grid -> $OUT =="
    go run ./cmd/hbpbench -quick -repeats 2 -out "$OUT" >/dev/null
    dir=$(ls -d "$OUT"/*/ | sort | tail -1)
    dir="${dir%/}"
    echo "archived $dir"

    echo "== sanity: csv row counts =="
    rows_csv="$dir/csv/rows.csv"
    summary_csv="$dir/csv/summary.csv"
    jsonl="$dir/rows.jsonl"
    for f in "$rows_csv" "$summary_csv" "$jsonl" "$dir/logs/tables.txt"; do
        [ -s "$f" ] || {
            echo "missing or empty: $f" >&2
            exit 1
        }
    done

    nrows=$(($(wc -l <"$rows_csv") - 1))
    nsum=$(($(wc -l <"$summary_csv") - 1))
    njson=$(wc -l <"$jsonl")
    echo "rows.csv: $nrows rows; summary.csv: $nsum groups; rows.jsonl: $njson lines"
    [ "$nrows" -gt 0 ] || {
        echo "rows.csv has no data rows" >&2
        exit 1
    }
    [ "$njson" -eq "$nrows" ] || {
        echo "jsonl/csv row mismatch: $njson vs $nrows" >&2
        exit 1
    }
    # 2 repeats per cell -> exactly half as many summary groups as rows.
    [ $((nsum * 2)) -eq "$nrows" ] || {
        echo "summary groups $nsum != rows/$nrows/2" >&2
        exit 1
    }

    head -1 "$rows_csv" | grep -q '^exp,algo,n,p,m,b,' || {
        echo "unexpected rows.csv header" >&2
        exit 1
    }
    # every experiment must have produced rows
    for e in EXP01 EXP02 EXP03 EXP04 EXP05 EXP06 EXP07 EXP08 EXP09 EXP10 EXP11 EXP13 EXP14 EXP15 EXP16; do
        grep -q "^$e," "$rows_csv" || {
            echo "no rows for $e" >&2
            exit 1
        }
    done
    # EXP13 must sweep the full real-backend catalog (spms is simulator-only)
    for k in matmul strassen sortx scan fft transpose gather listrank; do
        grep -q "^EXP13,$k," "$rows_csv" || {
            echo "EXP13 missing kernel $k" >&2
            exit 1
        }
    done
    # EXP16 must carry its client-count coordinate and verify every row
    grep -q '^EXP16,sort,.*clients=' "$rows_csv" || {
        echo "EXP16 rows carry no clients= coordinate" >&2
        exit 1
    }
    if grep '^EXP16,' "$rows_csv" | grep -qv ' ok'; then
        echo "EXP16 rows failed output verification:" >&2
        grep '^EXP16,' "$rows_csv" | grep -v ' ok' >&2
        exit 1
    fi

    echo "== determinism: -canon rows identical at -parallel 1 vs 8 (EXP05, EXP14, EXP15, EXP16) =="
    for e in EXP05 EXP14 EXP15 EXP16; do
        go run ./cmd/hbpbench -quick -exp "$e" -parallel 1 -canon -json >"$dir/logs/$e.p1.jsonl"
        go run ./cmd/hbpbench -quick -exp "$e" -parallel 8 -canon -json >"$dir/logs/$e.p8.jsonl"
        cmp "$dir/logs/$e.p1.jsonl" "$dir/logs/$e.p8.jsonl"
    done

    echo "== golden: full EXP14 grid digests match benchmark/golden (seeds 0, 7) =="
    # TestSimStatsDigestUnchanged pins only the quick grids; the full grid is
    # what the benchmark's sim_grid workload runs and checks against these.
    for s in 0 7; do
        got=$(go run ./cmd/hbpbench -exp EXP14 -seed "$s" -canon -json | sha256sum | cut -d' ' -f1)
        want=$(cat "benchmark/golden/exp14-seed$s.sha256")
        [ "$got" = "$want" ] || {
            echo "EXP14 seed $s: digest $got, want $want (benchmark/golden)" >&2
            exit 1
        }
    done

    echo "== smoke: hbptrace -trace on a Table-1 kernel and an fj kernel =="
    for a in "Scan(M-Sum)" matmul; do
        n=1024
        [ "$a" = matmul ] && n=16
        out=$(go run ./cmd/hbptrace -algo "$a" -n "$n" -p 4 -sched rws -trace)
        grep -q '^balance ratio' <<<"$out" && grep -q '^max writes to one word' <<<"$out" || {
            echo "hbptrace -trace -algo $a printed no f(r)/L(r) tables or no writes per word:" >&2
            echo "$out" >&2
            exit 1
        }
    done

    echo "== model check: no EXP14/EXP15 row outside its envelope =="
    if grep -q "OUT OF ENVELOPE" "$dir/logs/tables.txt"; then
        echo "rows outside the model envelope:" >&2
        grep "OUT OF ENVELOPE" "$dir/logs/tables.txt" >&2
        exit 1
    fi
fi

echo "run_all: OK"
