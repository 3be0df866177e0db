#!/usr/bin/env sh
# CLI integration test: simulate a dataset, then
#  1. map the same reads as FASTA (1 thread) and FASTQ (2 threads) and
#     require byte-identical PAF output — wiring the FASTQ ingestion
#     path and the batch driver's determinism contract through the
#     real binary;
#  2. compare the PAF at 1/2/4/8 threads against the committed golden
#     output (tests/golden/map_smoke.paf, captured before the
#     zero-allocation workspace refactor) — any drift in mapping
#     results across the refactor or thread counts fails here;
#  3. build a .segram pack with `segram index` and require that mapping
#     from the pack produces byte-identical PAF to mapping from
#     FASTA+VCF — the pack round-trip contract, end to end — and that
#     a 3-chromosome pack is byte-identical at `index --threads`
#     1/2/4, from FASTA+VCF and from GFA (the parallel build), and
#     that both baseline engines map it to byte-identical PAF at
#     --threads 1/2/4;
#  4. reject malformed numeric flags with clean errors (no silent
#     acceptance, no crashes), including the pipeline knobs
#     (--max-regions/--early-exit/--chain-filter/--max-chains/
#     --hop-limit), which must also be rejected under baseline engines;
#  5. wire the GFA route end to end: `segram construct` -> map straight
#     from the .gfa at 1/2/4 threads, requiring byte-identical PAF to
#     the FASTA+VCF route; a segment-shuffled copy of the GFA must map
#     identically too (the canonical fromGfa sort); `segram index`
#     accepts the GFA and the resulting pack maps identically; the
#     committed tests/data fixture exercises an external-style
#     pangenome with --path-coords reporting path-space positions;
#  6. run the accuracy loop: simulate -> map with all three engines
#     (segram, graphaligner, vg) plus the GFA route -> `segram eval`
#     against the .truth.tsv sidecar, gating SeGraM sensitivity at >=
#     either baseline minus epsilon (the paper's accuracy-parity
#     claim) and the GFA route at exactly the direct route's score.
#
# usage: test_cli.sh <path-to-segram-binary>
set -e
bin="$1"
test -x "$bin" || { echo "usage: test_cli.sh <segram-binary>"; exit 2; }
golden="$(dirname "$0")/golden/map_smoke.paf"
fixture="$(dirname "$0")/data/tiny_pangenome.gfa"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$bin" simulate "$tmp/d" 20000 12 150 0.03 2> /dev/null
"$bin" map --threads 1 --batch 5 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d.reads.fa" > "$tmp/t1.paf" 2> /dev/null
"$bin" map --threads 2 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d.reads.fq" > "$tmp/t2.paf" 2> /dev/null

test -s "$tmp/t1.paf" || { echo "FAIL: empty PAF output"; exit 1; }
cmp "$tmp/t1.paf" "$tmp/t2.paf" || {
    echo "FAIL: FASTA/1-thread and FASTQ/2-thread PAF differ"
    exit 1
}
echo "cli fastq + threads OK ($(wc -l < "$tmp/t1.paf") PAF records)"

# --- golden output: bit-identical to the pre-refactor pipeline ---
# Also with one- and five-read batches, so several batches are in
# flight at once (the streaming pipeline keeps two mapping).
test -s "$golden" || { echo "FAIL: missing golden $golden"; exit 1; }
for batch in default 1 5; do
    batch_args=""
    test "$batch" = default || batch_args="--batch $batch"
    for threads in 1 2 4 8; do
        # shellcheck disable=SC2086 # batch_args is two words or none
        "$bin" map --threads "$threads" $batch_args "$tmp/d.fa" \
            "$tmp/d.vcf" "$tmp/d.reads.fa" > "$tmp/g$threads.paf" \
            2> /dev/null
        cmp "$golden" "$tmp/g$threads.paf" || {
            echo "FAIL: PAF at $threads thread(s), batch $batch differs" \
                "from golden"
            exit 1
        }
    done
done
echo "cli golden output OK (bit-identical at 1/2/4/8 threads, batch" \
    "default/1/5)"

# --stats must print the per-stage wall-time breakdown.
"$bin" map --threads 2 --stats "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d.reads.fa" > /dev/null 2> "$tmp/stats.log"
grep -q "stage breakdown" "$tmp/stats.log" || {
    echo "FAIL: map --stats printed no stage breakdown"
    exit 1
}
grep -q "pipeline: parse .* pool busy" "$tmp/stats.log" || {
    echo "FAIL: map --stats printed no pipeline line"
    exit 1
}
grep -q "pre-processing split: read inputs" "$tmp/stats.log" || {
    echo "FAIL: map --stats printed no pre-processing split"
    exit 1
}
echo "cli --stats breakdown OK"

# The pipeline knobs must be accepted (and still map) on the segram
# engine; hop-limit 0 selects the software-exact unlimited mode. The
# chain-filter path through the lane scheduler must not depend on the
# thread count.
for threads in 1 4; do
    "$bin" map --threads "$threads" --max-regions 8 --early-exit 0 \
        --chain-filter --max-chains 2 --hop-limit 0 "$tmp/d.fa" \
        "$tmp/d.vcf" "$tmp/d.reads.fa" > "$tmp/knobs$threads.paf" \
        2> /dev/null
done
test -s "$tmp/knobs1.paf" || { echo "FAIL: knobs run mapped nothing"; exit 1; }
cmp "$tmp/knobs1.paf" "$tmp/knobs4.paf" || {
    echo "FAIL: knobs run differs between --threads 1 and 4"
    exit 1
}
echo "cli pipeline knobs OK"

# --- pack round trip: simulate -> index -> map-from-pack ---
"$bin" index --stats "$tmp/d.fa" "$tmp/d.vcf" "$tmp/d.segram" \
    2> "$tmp/index.log"
test -s "$tmp/d.segram" || { echo "FAIL: empty pack"; exit 1; }
grep -q "graph tables" "$tmp/index.log" || {
    echo "FAIL: index --stats printed no footprint report"
    exit 1
}
grep -q "occurrence histogram" "$tmp/index.log" || {
    echo "FAIL: index --stats printed no occurrence histogram"
    exit 1
}
grep -q "hot seed" "$tmp/index.log" || {
    echo "FAIL: index --stats printed no hottest-seed list"
    exit 1
}
for threads in 1 2; do
    "$bin" map --threads "$threads" "$tmp/d.segram" "$tmp/d.reads.fq" \
        > "$tmp/pack$threads.paf" 2> /dev/null
    cmp "$tmp/t1.paf" "$tmp/pack$threads.paf" || {
        echo "FAIL: pack-mode PAF differs at $threads thread(s)"
        exit 1
    }
done
"$bin" map --stats "$tmp/d.segram" "$tmp/d.reads.fq" > /dev/null \
    2> "$tmp/pack_stats.log"
grep -q "pre-processing split: mmap .* checksums .* table validation" \
    "$tmp/pack_stats.log" || {
    echo "FAIL: pack-mode --stats printed no mmap/checksum/validation split"
    exit 1
}
echo "cli pack round trip OK"

# --bucket-bits must reach the index build: both sides of the
# comparison use a non-default bucket count and must still agree.
"$bin" index --bucket-bits 12 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d12.segram" 2> /dev/null
"$bin" map --bucket-bits 12 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d.reads.fq" > "$tmp/bb_fresh.paf" 2> /dev/null
"$bin" map "$tmp/d12.segram" "$tmp/d.reads.fq" \
    > "$tmp/bb_pack.paf" 2> /dev/null
cmp "$tmp/bb_fresh.paf" "$tmp/bb_pack.paf" || {
    echo "FAIL: --bucket-bits 12 fresh vs pack PAF differ"
    exit 1
}
echo "cli --bucket-bits OK"

# A malformed pack must be rejected with a clean error, not a crash.
head -c 200 "$tmp/d.segram" > "$tmp/trunc.segram"
if "$bin" map "$tmp/trunc.segram" "$tmp/d.reads.fq" \
    > /dev/null 2> "$tmp/err.log"; then
    echo "FAIL: truncated pack was accepted"
    exit 1
fi
grep -q "invalid pack" "$tmp/err.log" || {
    echo "FAIL: truncated pack did not report a pack error"
    exit 1
}
echo "cli pack rejection OK"

# --- scale knobs: occurrence cap and the memory budget ---
# --max-occ 0 is documented as "uncapped": byte-identical to default.
"$bin" map --max-occ 0 "$tmp/d.fa" "$tmp/d.vcf" "$tmp/d.reads.fa" \
    > "$tmp/occ0.paf" 2> /dev/null
cmp "$tmp/t1.paf" "$tmp/occ0.paf" || {
    echo "FAIL: --max-occ 0 changed the PAF output"
    exit 1
}
# A huge cap no occurrence list reaches is also a no-op.
"$bin" map --max-occ 1000000 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d.reads.fa" > "$tmp/occhuge.paf" 2> /dev/null
cmp "$tmp/t1.paf" "$tmp/occhuge.paf" || {
    echo "FAIL: an unreachable --max-occ changed the PAF output"
    exit 1
}
# A tight cap must still map (subsampled seeding, same read count).
"$bin" map --max-occ 2 "$tmp/d.fa" "$tmp/d.vcf" "$tmp/d.reads.fa" \
    > "$tmp/occ2.paf" 2> /dev/null
test "$(wc -l < "$tmp/occ2.paf")" -eq "$(wc -l < "$tmp/t1.paf")" || {
    echo "FAIL: --max-occ 2 dropped reads"
    exit 1
}
# The budget path (cold load + LRU residency) must not change output,
# and must report its residency numbers.
"$bin" map --mem-budget 1 "$tmp/d.segram" "$tmp/d.reads.fq" \
    > "$tmp/budget.paf" 2> "$tmp/budget.log"
cmp "$tmp/t1.paf" "$tmp/budget.paf" || {
    echo "FAIL: --mem-budget changed the PAF output"
    exit 1
}
grep -q "mem budget" "$tmp/budget.log" || {
    echo "FAIL: --mem-budget printed no residency report"
    exit 1
}
# The budget needs droppable pages, so it requires a pack input.
if "$bin" map --mem-budget 64 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d.reads.fa" > /dev/null 2> "$tmp/err.log"; then
    echo "FAIL: --mem-budget without a pack was accepted"
    exit 1
fi
grep -q "error" "$tmp/err.log" || {
    echo "FAIL: --mem-budget without a pack died without a clean error"
    exit 1
}
# --discard-top must reach the index build: pack and fresh-map sides
# built with the same non-default fraction still agree byte-for-byte.
"$bin" index --discard-top 0.01 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/dt.segram" 2> /dev/null
"$bin" map --discard-top 0.01 "$tmp/d.fa" "$tmp/d.vcf" \
    "$tmp/d.reads.fq" > "$tmp/dt_fresh.paf" 2> /dev/null
"$bin" map "$tmp/dt.segram" "$tmp/d.reads.fq" \
    > "$tmp/dt_pack.paf" 2> /dev/null
cmp "$tmp/dt_fresh.paf" "$tmp/dt_pack.paf" || {
    echo "FAIL: --discard-top 0.01 fresh vs pack PAF differ"
    exit 1
}
echo "cli scale knobs OK"

# --- multi-chromosome simulate ---
"$bin" simulate --chromosomes 3 --repeat-fraction 0.05 \
    --tandem-fraction 0.04 "$tmp/m" 30000 12 150 0.03 2> "$tmp/sim.log"
test "$(grep -c '^>' "$tmp/m.fa")" -eq 3 || {
    echo "FAIL: --chromosomes 3 did not emit 3 FASTA records"
    exit 1
}
grep -q "^chr3" "$tmp/m.vcf" || {
    echo "FAIL: multi-chromosome VCF has no chr3 records"
    exit 1
}
grep -q "chr3" "$tmp/m.truth.tsv" || {
    echo "FAIL: no truth rows landed on chr3"
    exit 1
}
grep -q "tandem repeat bases" "$tmp/sim.log" || {
    echo "FAIL: simulate printed no planted-repeat report"
    exit 1
}
# The multi-chromosome dataset must map end to end.
"$bin" map "$tmp/m.fa" "$tmp/m.vcf" "$tmp/m.reads.fa" \
    > "$tmp/m.paf" 2> /dev/null
test -s "$tmp/m.paf" || {
    echo "FAIL: multi-chromosome dataset mapped nothing"
    exit 1
}
echo "cli multi-chromosome simulate OK"

# --- parallel index build: byte-identical packs at every --threads ---
# Both graph sources; the build runs one pool of --threads workers (the
# graphs one chromosome per worker, then each index on the whole pool)
# and reports its read / build / write split and where the build went.
"$bin" construct "$tmp/m.fa" "$tmp/m.vcf" "$tmp/m.gfa" 2> /dev/null
for threads in 1 2 4; do
    "$bin" index --threads "$threads" "$tmp/m.fa" "$tmp/m.vcf" \
        "$tmp/m$threads.segram" 2> "$tmp/mindex$threads.log"
    "$bin" index --threads "$threads" "$tmp/m.gfa" \
        "$tmp/mgfa$threads.segram" 2> /dev/null
    cmp "$tmp/m1.segram" "$tmp/m$threads.segram" || {
        echo "FAIL: FASTA+VCF pack differs at index --threads $threads"
        exit 1
    }
    cmp "$tmp/mgfa1.segram" "$tmp/mgfa$threads.segram" || {
        echo "FAIL: GFA pack differs at index --threads $threads"
        exit 1
    }
done
"$bin" index "$tmp/m.fa" "$tmp/m.vcf" "$tmp/mdefault.segram" 2> /dev/null
cmp "$tmp/m1.segram" "$tmp/mdefault.segram" || {
    echo "FAIL: default-thread pack differs from index --threads 1"
    exit 1
}
grep -q "read inputs .* s, build .* s on 1 worker, write pack .* s" \
    "$tmp/mindex1.log" || {
    echo "FAIL: index printed no read/build/write split"
    cat "$tmp/mindex1.log"
    exit 1
}
split_re="build split: graphs .* s, hits .* s, sort .* s, tables .* s"
grep -q "$split_re; peak RSS .* MiB" "$tmp/mindex1.log" || {
    echo "FAIL: index printed no graphs/hits/sort/tables split"
    cat "$tmp/mindex1.log"
    exit 1
}
grep -q "on 4 workers" "$tmp/mindex4.log" || {
    echo "FAIL: index --threads 4 on 3 chromosomes should use 4 workers"
    cat "$tmp/mindex4.log"
    exit 1
}
echo "cli parallel index OK (identical packs at 1/2/4 threads)"

# --- one chromosome: the index itself runs on the pool ---
# A single chromosome gains nothing from per-chromosome parallelism, so
# these packs exercise the node-range hit collection and the pooled
# radix sort; they must be byte-identical at every count, both routes.
"$bin" simulate "$tmp/one" 300000 10 150 0.03 > /dev/null 2>&1
"$bin" construct "$tmp/one.fa" "$tmp/one.vcf" "$tmp/one.gfa" 2> /dev/null
for threads in 1 2 3 4 8 default; do
    flag="--threads $threads"
    test "$threads" = default && flag=""
    # shellcheck disable=SC2086 # $flag is empty or two words
    "$bin" index $flag "$tmp/one.fa" "$tmp/one.vcf" \
        "$tmp/one$threads.segram" 2> /dev/null
    # shellcheck disable=SC2086
    "$bin" index $flag "$tmp/one.gfa" "$tmp/onegfa$threads.segram" \
        2> /dev/null
    cmp "$tmp/one1.segram" "$tmp/one$threads.segram" || {
        echo "FAIL: one-chromosome pack differs at index --threads $threads"
        exit 1
    }
    cmp "$tmp/onegfa1.segram" "$tmp/onegfa$threads.segram" || {
        echo "FAIL: one-chromosome GFA pack differs at index" \
             "--threads $threads"
        exit 1
    }
done
echo "cli one-chromosome index OK (identical packs at 1/2/3/4/8/default)"

# --- baselines on the one driver: multi-chromosome, every thread count ---
# The baselines shard per chromosome on the same (read-chunk x shard)
# driver as SeGraM; their PAF must be byte-identical at every count.
for engine in graphaligner vg; do
    for threads in 1 2 4; do
        "$bin" map --engine "$engine" --threads "$threads" \
            "$tmp/m1.segram" "$tmp/m.reads.fa" \
            > "$tmp/m_$engine$threads.paf" 2> /dev/null
        cmp "$tmp/m_${engine}1.paf" "$tmp/m_$engine$threads.paf" || {
            echo "FAIL: --engine $engine multi-chromosome PAF differs" \
                 "at $threads thread(s)"
            exit 1
        }
    done
    test -s "$tmp/m_${engine}1.paf" || {
        echo "FAIL: --engine $engine mapped nothing on 3 chromosomes"
        exit 1
    }
done
echo "cli multi-chromosome baselines OK (identical PAF at 1/2/4 threads)"

# --- GFA route: construct -> map-from-gfa, byte-identical PAF ---
"$bin" construct "$tmp/d.fa" "$tmp/d.vcf" "$tmp/d.gfa" 2> "$tmp/gfa.log"
grep -q "paths" "$tmp/gfa.log" || {
    echo "FAIL: construct reported no P lines"
    exit 1
}
grep -q "^P" "$tmp/d.gfa" || { echo "FAIL: GFA has no P line"; exit 1; }
for threads in 1 2 4; do
    "$bin" map --threads "$threads" "$tmp/d.gfa" "$tmp/d.reads.fa" \
        > "$tmp/gfa$threads.paf" 2> /dev/null
    cmp "$tmp/t1.paf" "$tmp/gfa$threads.paf" || {
        echo "FAIL: GFA-route PAF differs from FASTA+VCF at" \
             "$threads thread(s)"
        exit 1
    }
done
echo "cli map-from-gfa OK (bit-identical at 1/2/4 threads)"

# A segment-shuffled copy of the same GFA must map identically: the
# canonical topological sort in fromGfa makes node IDs independent of
# S-line order. (Reversing the S/L lines is a worst-case shuffle.)
{
    grep "^H" "$tmp/d.gfa"
    grep "^S" "$tmp/d.gfa" | sed -n '1!G;h;$p'
    grep "^L" "$tmp/d.gfa" | sed -n '1!G;h;$p'
    grep "^P" "$tmp/d.gfa"
} > "$tmp/d_shuffled.gfa"
"$bin" map --threads 2 "$tmp/d_shuffled.gfa" "$tmp/d.reads.fa" \
    > "$tmp/gfa_shuf.paf" 2> /dev/null
cmp "$tmp/t1.paf" "$tmp/gfa_shuf.paf" || {
    echo "FAIL: shuffled-segment GFA maps differently"
    exit 1
}
echo "cli shuffled-gfa invariance OK"

# `segram index` must accept the GFA (content-sniffed, two
# positionals) and the pack must map identically.
"$bin" index "$tmp/d.gfa" "$tmp/dgfa.segram" 2> /dev/null
"$bin" map "$tmp/dgfa.segram" "$tmp/d.reads.fq" \
    > "$tmp/gfa_pack.paf" 2> /dev/null
cmp "$tmp/t1.paf" "$tmp/gfa_pack.paf" || {
    echo "FAIL: GFA-built pack maps differently"
    exit 1
}
echo "cli index-from-gfa OK"

# The committed external-style fixture: out-of-order segments, a SNP
# bubble and an insertion allele, with a P line naming chrT. The read
# is an exact 100 bp cut of the reference path at position 100, so
# --path-coords must report chrT:100 with the 342 bp path length.
test -s "$fixture" || { echo "FAIL: missing fixture $fixture"; exit 1; }
cat > "$tmp/fix.fa" <<'EOF'
>fixread_pathpos100
CTGTGTCCACCCCATCGGACACTGGCATTTTTATTACACTCAGAAACAGAACTCGGGTAATTTTGACAGGTCACGCAGAGGCGCGCCCTCCTGAAGTGCG
EOF
"$bin" map --path-coords --bucket-bits 10 "$fixture" "$tmp/fix.fa" \
    > "$tmp/fix.paf" 2> /dev/null
test -s "$tmp/fix.paf" || { echo "FAIL: fixture read unmapped"; exit 1; }
awk -F'\t' '{
    if ($6 != "chrT" || $7 != 342 || $8 != 100) {
        printf "FAIL: fixture PAF target %s:%s/%s, want chrT:100/342\n", \
            $6, $8, $7
        exit 1
    }
}' "$tmp/fix.paf" || exit 1
echo "cli fixture + --path-coords OK"

# A malformed (cyclic) GFA must be rejected with a clean error.
printf 'S\ta\tACGT\nS\tb\tTTTT\nL\ta\t+\tb\t+\t0M\nL\tb\t+\ta\t+\t0M\n' \
    > "$tmp/cyclic.gfa"
if "$bin" map "$tmp/cyclic.gfa" "$tmp/d.reads.fa" \
    > /dev/null 2> "$tmp/err.log"; then
    echo "FAIL: cyclic GFA was accepted"
    exit 1
fi
grep -q "cyclic" "$tmp/err.log" || {
    echo "FAIL: cyclic GFA did not report a cycle error"
    exit 1
}
echo "cli gfa rejection OK"

# --- numeric flag validation: every bad value must fail loudly ---
# "--threads 0" used to mean "all cores"; it is now an explicit error.
for bad_flag in \
    "--threads 0" "--threads -1" "--threads eight" "--threads 4x" \
    "--batch 0" "--batch -3" "--batch many" \
    "--bucket-bits 0" "--bucket-bits 33" "--bucket-bits big" \
    "--engine turbo" "--threshold -5" "--threshold ten" \
    "--threshold 50" \
    "--max-regions -1" "--max-regions lots" \
    "--early-exit -0.5" "--early-exit fast" "--early-exit 101" \
    "--max-chains 0" "--max-chains -2" "--max-chains few" \
    "--hop-limit -1" "--hop-limit 65536" "--hop-limit tall" \
    "--max-occ -1" "--max-occ lots" \
    "--mem-budget 0" "--mem-budget -4" "--mem-budget big" \
    "--engine vg --max-regions 4" "--engine vg --early-exit 1.0" \
    "--engine graphaligner --chain-filter" \
    "--engine graphaligner --max-chains 2" \
    "--engine vg --hop-limit 12" "--engine vg --stats" \
    "--engine vg --max-occ 8" "--engine graphaligner --mem-budget 64"; do
    # shellcheck disable=SC2086
    if "$bin" map $bad_flag "$tmp/d.fa" "$tmp/d.vcf" \
        "$tmp/d.reads.fa" > /dev/null 2> "$tmp/flag.log"; then
        echo "FAIL: '$bad_flag' was accepted"
        exit 1
    fi
    grep -q "error" "$tmp/flag.log" || {
        echo "FAIL: '$bad_flag' rejected without a clear error message"
        cat "$tmp/flag.log"
        exit 1
    }
done
# Bad positional numbers on simulate must also fail loudly.
for bad_sim in "0 5 100 0.01" "10000 x 100 0.01" "10000 5 100 1.5" \
    "10000 5 100 0.01 --chromosomes 0" \
    "10000 5 100 0.01 --chromosomes 4097" \
    "10000 5 100 0.01 --repeat-fraction 1.5" \
    "10000 5 100 0.01 --tandem-fraction -0.1"; do
    # shellcheck disable=SC2086
    if "$bin" simulate "$tmp/bad" $bad_sim > /dev/null 2> "$tmp/flag.log"
    then
        echo "FAIL: simulate '$bad_sim' was accepted"
        exit 1
    fi
    grep -q "error" "$tmp/flag.log" || {
        echo "FAIL: simulate '$bad_sim' rejected without a clear error"
        exit 1
    }
done
# Flags must only be accepted by subcommands that consume them, and
# GFA-mode index must reject a stray third positional (otherwise the
# middle file would silently be overwritten with the pack).
for bad_cmd in \
    "index --path-coords $tmp/d.fa $tmp/d.vcf $tmp/x.segram" \
    "index $tmp/d.gfa $tmp/d.vcf $tmp/x.segram" \
    "index --discard-top 1.5 $tmp/d.fa $tmp/d.vcf $tmp/x.segram" \
    "index --discard-top -0.1 $tmp/d.fa $tmp/d.vcf $tmp/x.segram" \
    "index --discard-top half $tmp/d.fa $tmp/d.vcf $tmp/x.segram" \
    "index --threads 0 $tmp/d.fa $tmp/d.vcf $tmp/x.segram" \
    "index --threads x $tmp/d.fa $tmp/d.vcf $tmp/x.segram" \
    "construct --path-coords $tmp/d.fa $tmp/d.vcf $tmp/x.gfa" \
    "eval --path-coords $tmp/e.truth.tsv $tmp/segram.paf"; do
    # shellcheck disable=SC2086
    if "$bin" $bad_cmd > /dev/null 2> "$tmp/flag.log"; then
        echo "FAIL: '$bad_cmd' was accepted"
        exit 1
    fi
    grep -q "error" "$tmp/flag.log" || {
        echo "FAIL: '$bad_cmd' rejected without a clear error message"
        exit 1
    }
done
echo "cli flag validation OK"

# --- accuracy loop: simulate -> map x3 engines -> eval ---
"$bin" simulate "$tmp/e" 40000 60 150 0.03 2> /dev/null
test -s "$tmp/e.truth.tsv" || { echo "FAIL: no truth sidecar"; exit 1; }
# Sidecar rows must match the read count (plus one '#' header).
truth_rows=$(grep -vc '^#' "$tmp/e.truth.tsv")
test "$truth_rows" -eq 60 || {
    echo "FAIL: truth sidecar has $truth_rows rows, want 60"
    exit 1
}
for engine in segram graphaligner vg; do
    "$bin" map --engine "$engine" --threads 2 "$tmp/e.fa" "$tmp/e.vcf" \
        "$tmp/e.reads.fq" 0.05 > "$tmp/$engine.paf" 2> /dev/null
done
# The construct -> map-from-gfa route must score exactly like the
# direct FASTA+VCF route (it is the same graph, rebuilt from GFA).
"$bin" construct "$tmp/e.fa" "$tmp/e.vcf" "$tmp/e.gfa" 2> /dev/null
"$bin" map --threads 2 "$tmp/e.gfa" "$tmp/e.reads.fq" 0.05 \
    > "$tmp/gfa.paf" 2> /dev/null
cmp "$tmp/segram.paf" "$tmp/gfa.paf" || {
    echo "FAIL: eval-dataset GFA-route PAF differs from direct route"
    exit 1
}
"$bin" eval "$tmp/e.truth.tsv" \
    segram="$tmp/segram.paf" \
    gfa="$tmp/gfa.paf" \
    graphaligner="$tmp/graphaligner.paf" \
    vg="$tmp/vg.paf" > "$tmp/eval.tsv" 2> /dev/null

# Gate: SeGraM sensitivity must be >= each baseline - epsilon (0.05),
# and in absolute terms >= 0.9 on this easy dataset. awk reads the
# "all" rows of the TSV report.
awk -F'\t' '
    $2 == "all" { sens[$1] = $6 }
    END {
        eps = 0.05
        if (!("segram" in sens) || !("graphaligner" in sens) ||
            !("vg" in sens) || !("gfa" in sens)) {
            print "FAIL: eval TSV missing a mapper row"; exit 1
        }
        if (sens["gfa"] != sens["segram"]) {
            printf "FAIL: gfa route sensitivity %s != segram %s\n", \
                sens["gfa"], sens["segram"]
            exit 1
        }
        if (sens["segram"] < 0.9) {
            printf "FAIL: segram sensitivity %s < 0.9\n", sens["segram"]
            exit 1
        }
        if (sens["segram"] + eps < sens["graphaligner"]) {
            printf "FAIL: segram %s << graphaligner %s\n", \
                sens["segram"], sens["graphaligner"]
            exit 1
        }
        if (sens["segram"] + eps < sens["vg"]) {
            printf "FAIL: segram %s << vg %s\n", sens["segram"], \
                sens["vg"]
            exit 1
        }
        printf "eval sensitivity: segram %s, graphaligner %s, vg %s\n", \
            sens["segram"], sens["graphaligner"], sens["vg"]
    }' "$tmp/eval.tsv" || exit 1
echo "cli eval accuracy gate OK"

# --- output-path hardening: failed writes must not be silent ---
# The failure cases run over many small batches (--batch 4 on 400
# reads), so batches are still mapping when the output fails; each run
# sits under `timeout` so a pipeline that leaves a batch behind fails
# as a hang instead of stalling the suite.
"$bin" simulate "$tmp/many" 20000 400 150 0.03 2> /dev/null
# ENOSPC-style failure: a sink that rejects every byte (/dev/full).
# map must exit nonzero with a diagnostic — silently truncated
# mappings look complete, which is worse than no output.
if [ -w /dev/full ]; then
    rc=0
    timeout 120 "$bin" map --threads 4 --batch 4 "$tmp/many.fa" \
        "$tmp/many.vcf" "$tmp/many.reads.fq" \
        > /dev/full 2> "$tmp/full.log" || rc=$?
    test "$rc" -ne 124 || { echo "FAIL: map into /dev/full hung"; exit 1; }
    test "$rc" -ne 0 || {
        echo "FAIL: map writing to /dev/full exited 0"
        exit 1
    }
    grep -q "error" "$tmp/full.log" || {
        echo "FAIL: no diagnostic on the /dev/full run"
        cat "$tmp/full.log"
        exit 1
    }
    echo "cli full-disk diagnostic OK (exit $rc)"
else
    echo "cli full-disk diagnostic SKIPPED (/dev/full not writable)"
fi

# Closed-pipe (EPIPE): `segram map | head` is everyday usage — the
# writer must exit 0 with a notice, not die of SIGPIPE or report a
# phantom error. A fifo whose read end opens and closes immediately
# makes the EPIPE deterministic (the mapper's writes are buffered and
# land long after the close).
mkfifo "$tmp/pipe"
timeout 120 "$bin" map --threads 4 --batch 4 "$tmp/many.fa" \
    "$tmp/many.vcf" "$tmp/many.reads.fq" > "$tmp/pipe" 2> "$tmp/pipe.log" &
map_pid=$!
exec 3< "$tmp/pipe"
exec 3<&-
rc=0
wait "$map_pid" || rc=$?
test "$rc" -eq 0 || {
    echo "FAIL: map into a closed pipe exited $rc (want 0)"
    cat "$tmp/pipe.log"
    exit 1
}
grep -q "pipe closed" "$tmp/pipe.log" || {
    echo "FAIL: no closed-pipe notice on stderr"
    cat "$tmp/pipe.log"
    exit 1
}
echo "cli closed-pipe handling OK"

# The everyday form of the same: `segram map | head -n 1`. POSIX sh
# has no pipefail, so the map's status travels through a file.
{
    rc=0
    timeout 120 "$bin" map --threads 4 --batch 4 "$tmp/many.fa" \
        "$tmp/many.vcf" "$tmp/many.reads.fq" 2> "$tmp/head.log" || rc=$?
    echo "$rc" > "$tmp/head.rc"
} | head -n 1 > "$tmp/head.paf"
test "$(cat "$tmp/head.rc")" -eq 0 || {
    echo "FAIL: map | head -n 1 exited $(cat "$tmp/head.rc") (want 0)"
    cat "$tmp/head.log"
    exit 1
}
test "$(wc -l < "$tmp/head.paf")" -eq 1 || {
    echo "FAIL: map | head -n 1 printed no record"
    exit 1
}
echo "cli map | head OK"

# Malformed input in a later batch: every batch before it is written,
# exactly as when those reads are mapped alone, and the run fails with
# the parser's error. Record 43 (batch 10 at --batch 4) loses its '+'
# separator line; batches 0-9 hold reads 1-40.
awk 'NR == 4 * 42 + 3 { print "x"; next } { print }' \
    "$tmp/many.reads.fq" > "$tmp/bad.fq"
head -n 160 "$tmp/many.reads.fq" > "$tmp/good40.fq"
"$bin" map --threads 4 --batch 4 "$tmp/many.fa" "$tmp/many.vcf" \
    "$tmp/good40.fq" > "$tmp/good40.paf" 2> /dev/null
test -s "$tmp/good40.paf" || { echo "FAIL: empty 40-read PAF"; exit 1; }
for threads in 1 4; do
    rc=0
    timeout 120 "$bin" map --threads "$threads" --batch 4 "$tmp/many.fa" \
        "$tmp/many.vcf" "$tmp/bad.fq" > "$tmp/bad.paf" \
        2> "$tmp/bad.log" || rc=$?
    test "$rc" -ne 0 && test "$rc" -ne 124 || {
        echo "FAIL: malformed FASTQ at $threads thread(s) exited $rc"
        exit 1
    }
    grep -q "error: input error: FASTQ line 169: expected a '+' separator" \
        "$tmp/bad.log" || {
        echo "FAIL: malformed FASTQ error not reported"
        cat "$tmp/bad.log"
        exit 1
    }
    cmp "$tmp/good40.paf" "$tmp/bad.paf" || {
        echo "FAIL: PAF before the malformed batch differs at" \
            "$threads thread(s)"
        exit 1
    }
done
echo "cli malformed later batch OK (earlier batches written, exit nonzero)"

# --- serve daemon smoke: load once, map many, reload, drain ---
"$bin" index "$tmp/d.fa" "$tmp/d.vcf" "$tmp/serve.segram" 2> /dev/null
"$bin" map --threads 2 "$tmp/serve.segram" "$tmp/d.reads.fa" \
    > "$tmp/offline.paf" 2> /dev/null
"$bin" serve --socket "$tmp/sv.sock" --threads 2 \
    ref="$tmp/serve.segram" 2> "$tmp/serve.log" &
serve_pid=$!
i=0
while [ ! -S "$tmp/sv.sock" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
test -S "$tmp/sv.sock" || {
    echo "FAIL: daemon socket never appeared"
    cat "$tmp/serve.log"
    exit 1
}
"$bin" client --socket "$tmp/sv.sock" ping | grep -q "PONG" || {
    echo "FAIL: daemon did not answer PING"
    exit 1
}
# Daemon output must be byte-identical to the offline command on the
# same pack and reads — the serving path adds zero mapping drift.
"$bin" client --socket "$tmp/sv.sock" map ref "$tmp/d.reads.fa" \
    > "$tmp/served.paf" 2> /dev/null
cmp "$tmp/offline.paf" "$tmp/served.paf" || {
    echo "FAIL: daemon PAF differs from offline map"
    exit 1
}
"$bin" client --socket "$tmp/sv.sock" stats > "$tmp/stats.txt"
grep -q "^server.map_requests 1$" "$tmp/stats.txt" || {
    echo "FAIL: STATS did not count the MAP request"
    cat "$tmp/stats.txt"
    exit 1
}
grep -q "^tenant.ref.reads " "$tmp/stats.txt" || {
    echo "FAIL: STATS missing the per-tenant section"
    exit 1
}
# Concurrent small requests: the dispatcher may coalesce requests
# from different clients into one batch, yet each client must still
# get exactly the offline bytes for its own reads.
client_pids=""
for c in 1 2 3 4; do
    "$bin" client --socket "$tmp/sv.sock" --batch 8 map ref \
        "$tmp/d.reads.fa" > "$tmp/served_c$c.paf" 2> /dev/null &
    client_pids="$client_pids $!"
done
for pid in $client_pids; do
    wait "$pid" || { echo "FAIL: concurrent client map failed"; exit 1; }
done
for c in 1 2 3 4; do
    cmp "$tmp/offline.paf" "$tmp/served_c$c.paf" || {
        echo "FAIL: concurrent client $c PAF differs from offline map"
        exit 1
    }
done
"$bin" client --socket "$tmp/sv.sock" stats > "$tmp/stats.txt"
grep -q "^server.map_batches " "$tmp/stats.txt" || {
    echo "FAIL: STATS missing server.map_batches"
    cat "$tmp/stats.txt"
    exit 1
}
# Reload the pack in place, then map again: still byte-identical.
"$bin" client --socket "$tmp/sv.sock" reload ref "$tmp/serve.segram" \
    2> /dev/null || {
    echo "FAIL: reload rejected"
    exit 1
}
"$bin" client --socket "$tmp/sv.sock" map ref "$tmp/d.reads.fa" \
    > "$tmp/served2.paf" 2> /dev/null
cmp "$tmp/offline.paf" "$tmp/served2.paf" || {
    echo "FAIL: post-reload daemon PAF differs from offline map"
    exit 1
}
# Unknown references must be routed to an error, not a crash.
rc=0
"$bin" client --socket "$tmp/sv.sock" map ghost "$tmp/d.reads.fa" \
    > /dev/null 2> "$tmp/ghost.log" || rc=$?
test "$rc" -ne 0 || { echo "FAIL: mapping 'ghost' exited 0"; exit 1; }
grep -q "NOREF" "$tmp/ghost.log" || {
    echo "FAIL: no NOREF diagnostic for an unknown reference"
    cat "$tmp/ghost.log"
    exit 1
}
# Graceful shutdown: SIGTERM drains and exits 0.
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
test "$rc" -eq 0 || {
    echo "FAIL: daemon exited $rc on SIGTERM (want 0)"
    cat "$tmp/serve.log"
    exit 1
}
grep -q "shutting down" "$tmp/serve.log" || {
    echo "FAIL: no shutdown notice in the daemon log"
    cat "$tmp/serve.log"
    exit 1
}
if [ -S "$tmp/sv.sock" ]; then
    echo "FAIL: daemon left its socket file behind"
    exit 1
fi
# SIGTERM right after the first PING: the handlers are installed before
# the server starts answering, so every cycle is a graceful stop.
for cycle in $(seq 1 20); do
    "$bin" serve --socket "$tmp/st.sock" ref="$tmp/serve.segram" \
        2> "$tmp/st.log" &
    st_pid=$!
    i=0
    until "$bin" client --socket "$tmp/st.sock" ping > /dev/null 2>&1; do
        i=$((i + 1))
        test "$i" -lt 200 || {
            echo "FAIL: cycle $cycle daemon never answered PING"
            cat "$tmp/st.log"
            exit 1
        }
        sleep 0.05
    done
    kill -TERM "$st_pid"
    rc=0
    wait "$st_pid" || rc=$?
    test "$rc" -eq 0 || {
        echo "FAIL: cycle $cycle daemon exited $rc on SIGTERM after PING"
        cat "$tmp/st.log"
        exit 1
    }
    grep -q "shutting down" "$tmp/st.log" || {
        echo "FAIL: cycle $cycle no shutdown notice after PING + SIGTERM"
        cat "$tmp/st.log"
        exit 1
    }
done
echo "cli serve daemon OK (byte-identical, concurrent clients, reload, graceful stop)"
