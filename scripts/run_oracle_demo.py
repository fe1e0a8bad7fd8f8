"""End-to-end demo against the offline oracle backend.

Generates a synthetic corpus, samples k sentences, runs the greedy feature
search under leave-one-out, predicts on held-out sentences and prints the
scores.  Useful as a living example of the library API; everything is
deterministic in (--seed, --k).

    python scripts/run_oracle_demo.py --k 10 --seed 3 --drop-prob 0.2
"""

import argparse

from fewner.backend import make_noisy_oracle
from fewner.corpus import sample_fewshot
from fewner.evaluation import estimate_carbon, score
from fewner.search import PipelineSettings, PromptingPipeline, greedy_search
from fewner.synthetic import synthetic_corpus
from fewner.templates import PromptConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=60, help="corpus size")
    ap.add_argument("--k", type=int, default=10, help="annotated sample size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--language", default="en", choices=("en", "fr", "es"))
    ap.add_argument("--drop-prob", type=float, default=0.0)
    ap.add_argument("--spurious-prob", type=float, default=0.0)
    ap.add_argument("--second-pass", action="store_true")
    args = ap.parse_args()

    corpus, types = synthetic_corpus(args.n, args.seed, language=args.language)
    sample = sample_fewshot(corpus, args.k, args.seed)
    by_id = {s.id: s for s in corpus}
    annotated = [by_id[sid] for sid in sample.sentence_ids]
    held_out = [s for s in corpus if s.id not in set(sample.sentence_ids)]

    backend = make_noisy_oracle(
        corpus, types, seed=args.seed, drop_prob=args.drop_prob, spurious_prob=args.spurious_prob
    )

    settings = PipelineSettings(prompt_language=args.language, seed=args.seed)
    pipeline = PromptingPipeline(annotated, types, backend, settings)
    best, trace = greedy_search(pipeline, PromptConfig(), second_pass=args.second_pass)

    print(f"greedy search: {len(trace.evaluations)} evaluations, "
          f"{trace.total_backend_calls} backend calls")
    for entry in trace.evaluations:
        print(f"  mask {entry.bitmask:3d} micro-F1 {entry.micro_f1:.4f} {entry.features}")
    print(f"accepted: {list(trace.accepted_features)}")

    predictions = pipeline.predict(best, held_out)
    report = score(predictions, held_out, [t.id for t in types])
    print(report.to_markdown())

    carbon = estimate_carbon(trace.wall_clock_seconds / 3600.0)
    print(f"~{carbon.co2e_g:.3f} gCO2e for the search at default profiles")


if __name__ == "__main__":
    main()
