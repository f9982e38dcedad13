#!/usr/bin/env bash
# Regenerates every committed crash-sweep and schedule-explorer matrix into a
# temporary directory and fails on any byte difference (or on a committed
# CSV that has no generating command below).
#
#   ./scripts/check_matrices.sh
#
# One line per committed CSV: the file, then the exact command (binary name
# plus flags, without --out) that writes it. Identical commands run once.
set -euo pipefail
cd "$(dirname "$0")/.."

MATRICES='
results/crashsweep/list_tracking.csv                         crashsweep --structure list --algo tracking
results/crashsweep/list_capsules.csv                         crashsweep --structure list --algo capsules
results/crashsweep/list_capsules-opt.csv                     crashsweep --structure list --algo capsules-opt
results/crashsweep/list_romulus.csv                          crashsweep --structure list --algo romulus
results/crashsweep/list_redoopt.csv                          crashsweep --structure list --algo redo-opt
results/crashsweep/bst_tracking-bst.csv                      crashsweep --structure bst
results/crashsweep/queue_tracking.csv                        crashsweep --structure queue --algo tracking
results/crashsweep/stack_tracking.csv                        crashsweep --structure stack --algo tracking
results/crashsweep/exchanger_tracking.csv                    crashsweep --structure exchanger
results/crashsweep/hashmap_tracking.csv                      crashsweep --structure hashmap --ops 24
results/crashsweep/churn_list_tracking.csv                   crashsweep --churn --structure list --algo tracking
results/crashsweep/churn_list_capsules.csv                   crashsweep --churn --structure list --algo capsules
results/crashsweep/churn_list_capsules-opt.csv               crashsweep --churn --structure list --algo capsules-opt
results/crashsweep/churn_list_romulus.csv                    crashsweep --churn --structure list --algo romulus
results/crashsweep/churn_list_redoopt.csv                    crashsweep --churn --structure list --algo redo-opt
results/crashsweep/churn_bst_tracking-bst.csv                crashsweep --churn --structure bst
results/crashsweep/churn_queue_tracking.csv                  crashsweep --churn --structure queue --algo tracking
results/crashsweep/churn_stack_tracking.csv                  crashsweep --churn --structure stack --algo tracking
results/crashsweep/churn_exchanger_tracking.csv              crashsweep --churn --structure exchanger
results/crashsweep/churn_hashmap_tracking.csv                crashsweep --churn --structure hashmap --ops 24
results/crashsweep/churn_palloc.csv                          crashsweep --palloc
results/crashsweep/recrash_list_tracking.csv                 crashsweep --structure list --algo tracking --multi-crash 2 --adversary seeded
results/crashsweep/recrash_queue_tracking.csv                crashsweep --structure queue --algo tracking --multi-crash 2 --adversary seeded
results/crashsweep/recrash_hashmap_tracking.csv              crashsweep --structure hashmap --ops 24 --multi-crash 1 --adversary seeded
results/crashsweep/recrash_churn_list_tracking.csv           crashsweep --churn --structure list --algo tracking --ops 10 --sample 0.5 --multi-crash 2 --adversary seeded
results/crashsweep/recrash_churn_palloc.csv                  crashsweep --churn --structure list --algo tracking --ops 10 --sample 0.5 --multi-crash 2 --adversary seeded
results/crashsweep-flushopt/list_tracking.csv                crashsweep --flushopt --structure list --algo tracking
results/crashsweep-flushopt/list_capsules.csv                crashsweep --flushopt --structure list --algo capsules
results/crashsweep-flushopt/list_capsules-opt.csv            crashsweep --flushopt --structure list --algo capsules-opt
results/crashsweep-flushopt/list_romulus.csv                 crashsweep --flushopt --structure list --algo romulus
results/crashsweep-flushopt/list_redoopt.csv                 crashsweep --flushopt --structure list --algo redo-opt
results/crashsweep-flushopt/bst_tracking-bst.csv             crashsweep --flushopt --structure bst
results/crashsweep-flushopt/queue_tracking.csv               crashsweep --flushopt --structure queue --algo tracking
results/crashsweep-flushopt/queue_tracking-comb.csv          crashsweep --flushopt --structure queue --algo tracking-comb
results/crashsweep-flushopt/stack_tracking.csv               crashsweep --flushopt --structure stack --algo tracking
results/crashsweep-flushopt/stack_tracking-comb.csv          crashsweep --flushopt --structure stack --algo tracking-comb
results/crashsweep-flushopt/exchanger_tracking.csv           crashsweep --flushopt --structure exchanger
results/crashsweep-flushopt/hashmap_tracking.csv             crashsweep --flushopt --structure hashmap --ops 24
results/crashsweep-flushopt/churn_list_tracking.csv          crashsweep --flushopt --churn --structure list --algo tracking
results/crashsweep-flushopt/churn_list_capsules.csv          crashsweep --flushopt --churn --structure list --algo capsules
results/crashsweep-flushopt/churn_list_capsules-opt.csv      crashsweep --flushopt --churn --structure list --algo capsules-opt
results/crashsweep-flushopt/churn_list_romulus.csv           crashsweep --flushopt --churn --structure list --algo romulus
results/crashsweep-flushopt/churn_list_redoopt.csv           crashsweep --flushopt --churn --structure list --algo redo-opt
results/crashsweep-flushopt/churn_bst_tracking-bst.csv       crashsweep --flushopt --churn --structure bst
results/crashsweep-flushopt/churn_queue_tracking.csv         crashsweep --flushopt --churn --structure queue --algo tracking
results/crashsweep-flushopt/churn_queue_tracking-comb.csv    crashsweep --flushopt --churn --structure queue --algo tracking-comb
results/crashsweep-flushopt/churn_stack_tracking.csv         crashsweep --flushopt --churn --structure stack --algo tracking
results/crashsweep-flushopt/churn_stack_tracking-comb.csv    crashsweep --flushopt --churn --structure stack --algo tracking-comb
results/crashsweep-flushopt/churn_exchanger_tracking.csv     crashsweep --flushopt --churn --structure exchanger
results/crashsweep-flushopt/churn_palloc.csv                 crashsweep --flushopt --palloc
results/crashsweep-flushopt/recrash_list_tracking.csv        crashsweep --flushopt --structure list --algo tracking --multi-crash 2 --adversary seeded
results/crashsweep-flushopt/recrash_list_capsules.csv        crashsweep --flushopt --structure list --algo capsules --multi-crash 2 --adversary seeded
results/crashsweep-flushopt/recrash_queue_tracking.csv       crashsweep --flushopt --structure queue --algo tracking --multi-crash 2 --adversary seeded
results/explore/explore_list_tracking_t2.csv                 explore --structure list --algo tracking
results/explore/explore_list_capsules_t2.csv                 explore --structure list --algo capsules
results/explore/explore_list_capsules-opt_t2.csv             explore --structure list --algo capsules-opt
results/explore/explore_list_romulus_t2.csv                  explore --structure list --algo romulus
results/explore/explore_list_redoopt_t2.csv                  explore --structure list --algo redo-opt
results/explore/explore_bst_tracking-bst_t2.csv              explore --structure bst
results/explore/explore_queue_tracking_t2.csv                explore --structure queue --algo tracking
results/explore/explore_queue_tracking-comb_t2.csv           explore --structure queue --algo tracking-comb
results/explore/explore_stack_tracking_t2.csv                explore --structure stack --algo tracking
results/explore/explore_stack_tracking-comb_t2.csv           explore --structure stack --algo tracking-comb
results/explore/explore_exchanger_tracking_t2.csv            explore --structure exchanger
results/explore/explore_hashmap_tracking_t2.csv              explore --structure hashmap --ops 12
results/explore/explore_list_tracking_t3.csv                 explore --threads 3 --ops 3 --schedules 3 --structure list --algo tracking
results/explore/explore_list_capsules_t3.csv                 explore --threads 3 --ops 3 --schedules 3 --structure list --algo capsules
results/explore/explore_list_capsules-opt_t3.csv             explore --threads 3 --ops 3 --schedules 3 --structure list --algo capsules-opt
results/explore/explore_list_romulus_t3.csv                  explore --threads 3 --ops 3 --schedules 3 --structure list --algo romulus
results/explore/explore_list_redoopt_t3.csv                  explore --threads 3 --ops 3 --schedules 3 --structure list --algo redo-opt
results/explore/explore_bst_tracking-bst_t3.csv              explore --threads 3 --ops 3 --schedules 3 --structure bst
results/explore/explore_queue_tracking_t3.csv                explore --threads 3 --ops 3 --schedules 3 --structure queue --algo tracking
results/explore/explore_queue_tracking-comb_t3.csv           explore --threads 3 --ops 3 --schedules 3 --structure queue --algo tracking-comb
results/explore/explore_stack_tracking_t3.csv                explore --threads 3 --ops 3 --schedules 3 --structure stack --algo tracking
results/explore/explore_stack_tracking-comb_t3.csv           explore --threads 3 --ops 3 --schedules 3 --structure stack --algo tracking-comb
results/explore/explore_exchanger_tracking_t3.csv            explore --threads 3 --ops 3 --schedules 3 --structure exchanger
results/explore/explore_hashmap_tracking_t3.csv              explore --threads 3 --ops 8 --schedules 3 --structure hashmap
results/explore/explore_list_tracking_t4.csv                 explore --threads 4 --structure list --algo tracking
results/explore/explore_list_romulus_t4.csv                  explore --threads 4 --structure list --algo romulus
results/explore/explore_bst_tracking-bst_t4.csv              explore --threads 4 --structure bst
results/explore/explore_exchanger_tracking_t4.csv            explore --threads 4 --structure exchanger
results/explore-flushopt/explore_list_tracking_t2.csv        explore --flushopt --structure list --algo tracking
results/explore-flushopt/explore_list_capsules_t2.csv        explore --flushopt --structure list --algo capsules
results/explore-flushopt/explore_list_capsules-opt_t2.csv    explore --flushopt --structure list --algo capsules-opt
results/explore-flushopt/explore_list_romulus_t2.csv         explore --flushopt --structure list --algo romulus
results/explore-flushopt/explore_list_redoopt_t2.csv         explore --flushopt --structure list --algo redo-opt
results/explore-flushopt/explore_bst_tracking-bst_t2.csv     explore --flushopt --structure bst
results/explore-flushopt/explore_queue_tracking_t2.csv       explore --flushopt --structure queue --algo tracking
results/explore-flushopt/explore_queue_tracking-comb_t2.csv  explore --flushopt --structure queue --algo tracking-comb
results/explore-flushopt/explore_stack_tracking_t2.csv       explore --flushopt --structure stack --algo tracking
results/explore-flushopt/explore_stack_tracking-comb_t2.csv  explore --flushopt --structure stack --algo tracking-comb
results/explore-flushopt/explore_exchanger_tracking_t2.csv   explore --flushopt --structure exchanger
results/explore-flushopt/explore_hashmap_tracking_t2.csv     explore --flushopt --structure hashmap --ops 12
results/explore-flushopt/explore_list_tracking_t3.csv        explore --flushopt --threads 3 --ops 3 --schedules 3 --structure list --algo tracking
results/explore-flushopt/explore_list_capsules_t3.csv        explore --flushopt --threads 3 --ops 3 --schedules 3 --structure list --algo capsules
results/explore-flushopt/explore_list_capsules-opt_t3.csv    explore --flushopt --threads 3 --ops 3 --schedules 3 --structure list --algo capsules-opt
results/explore-flushopt/explore_list_romulus_t3.csv         explore --flushopt --threads 3 --ops 3 --schedules 3 --structure list --algo romulus
results/explore-flushopt/explore_list_redoopt_t3.csv         explore --flushopt --threads 3 --ops 3 --schedules 3 --structure list --algo redo-opt
results/explore-flushopt/explore_bst_tracking-bst_t3.csv     explore --flushopt --threads 3 --ops 3 --schedules 3 --structure bst
results/explore-flushopt/explore_queue_tracking_t3.csv       explore --flushopt --threads 3 --ops 3 --schedules 3 --structure queue --algo tracking
results/explore-flushopt/explore_queue_tracking-comb_t3.csv  explore --flushopt --threads 3 --ops 3 --schedules 3 --structure queue --algo tracking-comb
results/explore-flushopt/explore_stack_tracking_t3.csv       explore --flushopt --threads 3 --ops 3 --schedules 3 --structure stack --algo tracking
results/explore-flushopt/explore_stack_tracking-comb_t3.csv  explore --flushopt --threads 3 --ops 3 --schedules 3 --structure stack --algo tracking-comb
results/explore-flushopt/explore_exchanger_tracking_t3.csv   explore --flushopt --threads 3 --ops 3 --schedules 3 --structure exchanger
results/explore-flushopt/explore_list_tracking_t4.csv        explore --flushopt --threads 4 --structure list --algo tracking
results/explore-flushopt/explore_list_capsules_t4.csv        explore --flushopt --threads 4 --structure list --algo capsules
'

cargo build --release --locked -q -p bench --bin crashsweep --bin explore
bin_dir="${CARGO_TARGET_DIR:-target}/release"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

declare -A outdir listed
fail=0
n=0
while read -r file bin args; do
    [ -z "$file" ] && continue
    listed[$file]=1
    key="$bin $args"
    if [ -z "${outdir[$key]:-}" ]; then
        n=$((n + 1))
        outdir[$key]="$tmp/$n"
        if ! "$bin_dir/$bin" $args --out "$tmp/$n" >"$tmp/$n.log" 2>&1; then
            echo "FAIL: '$key' exited non-zero (log below)"
            cat "$tmp/$n.log"
            fail=1
        fi
    fi
    regen="${outdir[$key]}/$(basename "$file")"
    if ! cmp -s "$file" "$regen"; then
        echo "DIFF: $file != '$key'"
        fail=1
    fi
done <<<"$MATRICES"

for f in results/{crashsweep,crashsweep-flushopt,explore,explore-flushopt}/*.csv; do
    if [ -z "${listed[$f]:-}" ]; then
        echo "UNLISTED: $f has no generating command in $0"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "matrix check FAILED"
    exit 1
fi
echo "matrix check passed: ${#listed[@]} committed CSVs regenerate byte-identically ($n runs)"
