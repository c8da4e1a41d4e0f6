"""Sequential vs. batched black-box prompting: seconds-per-inspection and QPS.

Fits one BPROM detector, builds a fleet of suspicious models, then inspects
the same fleet twice: once with the sequential objective (one ``query()`` per
CMA-ES candidate, re-resizing the optimisation batch every call) and once with
the batched query engine (one megabatch ``query()`` per generation over a
cached base canvas).  Correctness is asserted on every run — batched verdicts
must match the sequential path (scores within 1e-9, identical labels, same
query budget) — so the benchmark doubles as an equivalence check.  Results are
written as machine-readable JSON so the perf trajectory can be tracked across
commits.

Run with:  PYTHONPATH=src python benchmarks/bench_blackbox_prompting.py \
               [--profile tiny|fast|bench] [--arch mlp] [--models 4] \
               [--json BENCH_prompting.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace

from repro.config import get_profile
from repro.core.detector import BpromDetector
from repro.datasets.registry import load_dataset
from repro.models.registry import build_classifier
from repro.runtime import blas


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="fast", help="experiment profile preset")
    parser.add_argument("--arch", default="mlp", help="suspicious/shadow architecture")
    parser.add_argument("--models", type=int, default=4, help="fleet size")
    parser.add_argument(
        "--iterations", type=int, default=None, help="override blackbox_iterations"
    )
    parser.add_argument(
        "--population", type=int, default=None, help="override blackbox_population"
    )
    parser.add_argument(
        "--image-size",
        type=int,
        default=None,
        help="override the profile's image_size (and the prompt canvas to match)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timed passes per path; the minimum is reported (noise robustness)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json",
        default="BENCH_prompting.json",
        help="output path for machine-readable results",
    )
    args = parser.parse_args()

    profile = get_profile(args.profile)
    overrides = {}
    if args.iterations is not None:
        overrides["blackbox_iterations"] = args.iterations
    if args.population is not None:
        overrides["blackbox_population"] = args.population
    if args.image_size is not None:
        # the prompt canvas is the suspicious model's input, so both move together
        overrides["source_size"] = args.image_size
        profile = profile.with_overrides(image_size=args.image_size)
    if overrides:
        profile = profile.with_overrides(prompt=replace(profile.prompt, **overrides))
    train, test = load_dataset("cifar10", profile, seed=args.seed)
    target_train, target_test = load_dataset("stl10", profile, seed=args.seed)

    prompt_config = profile.prompt
    print(
        f"profile={profile.name} arch={args.arch} models={args.models} "
        f"iterations={prompt_config.blackbox_iterations} "
        f"population={prompt_config.blackbox_population} cores={os.cpu_count() or 1}"
    )

    print("fitting the detector once ...")
    detector = BpromDetector(profile=profile, architecture=args.arch, seed=args.seed)
    detector.fit(test, target_train, target_test)

    print(f"building a fleet of {args.models} suspicious models ...")
    fleet = []
    for index in range(args.models):
        model = build_classifier(
            args.arch,
            train.num_classes,
            image_size=profile.image_size,
            rng=1000 + index,
            name=f"vendor-{index}",
        )
        model.fit(train, profile.classifier, rng=2000 + index)
        fleet.append(model)

    # the blackbox engine is selected by the profile's PromptConfig, read at
    # inspect time — swap it between the two timed passes so both run against
    # the *same* fitted detector state (identical meta-classifier and prompts)
    def inspect_fleet(batched: bool):
        detector.profile = profile.with_overrides(
            prompt=replace(prompt_config, blackbox_batched=batched)
        )
        start = time.perf_counter()
        results = [detector.inspect(model) for model in fleet]
        return results, time.perf_counter() - start

    # interleave the timed passes so machine-load drift hits both paths
    # equally; the minimum over repeats is reported (noise robustness)
    sequential_s = batched_s = float("inf")
    for _ in range(max(args.repeats, 1)):
        sequential_results, elapsed = inspect_fleet(batched=False)
        sequential_s = min(sequential_s, elapsed)
        batched_results, elapsed = inspect_fleet(batched=True)
        batched_s = min(batched_s, elapsed)

    print("sequential objective (one query per candidate):")
    print(f"  total {sequential_s:8.2f}s   {sequential_s / args.models:8.3f}s/inspection")
    print("batched query engine (one megabatch per generation):")
    print(f"  total {batched_s:8.2f}s   {batched_s / args.models:8.3f}s/inspection")

    for model, seq, bat in zip(fleet, sequential_results, batched_results):
        assert abs(bat.backdoor_score - seq.backdoor_score) <= 1e-9, model.name
        assert bat.is_backdoored == seq.is_backdoored, model.name
        assert bat.query_count == seq.query_count, model.name
        assert bat.query_calls <= seq.query_calls, model.name
    print("  batched verdicts match the sequential path (scores within 1e-9)")

    total_queries = sum(result.query_count for result in batched_results)
    sequential_calls = sum(result.query_calls for result in sequential_results)
    batched_calls = sum(result.query_calls for result in batched_results)
    speedup = sequential_s / max(batched_s, 1e-9)
    results = {
        "benchmark": "blackbox_prompting",
        "profile": profile.name,
        "arch": args.arch,
        "models": args.models,
        "blackbox_optimizer": prompt_config.blackbox_optimizer,
        "blackbox_iterations": prompt_config.blackbox_iterations,
        "blackbox_population": prompt_config.blackbox_population,
        "queries_per_model": total_queries // max(args.models, 1),
        "sequential_total_seconds": sequential_s,
        "batched_total_seconds": batched_s,
        "sequential_seconds_per_inspection": sequential_s / args.models,
        "batched_seconds_per_inspection": batched_s / args.models,
        "sequential_queries_per_second": total_queries / max(sequential_s, 1e-9),
        "batched_queries_per_second": total_queries / max(batched_s, 1e-9),
        "sequential_query_calls": sequential_calls,
        "batched_query_calls": batched_calls,
        "speedup": speedup,
        "verdicts_equivalent": True,
        "environment": blas.environment(),
    }
    with open(args.json, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    print(
        f"batched speedup {speedup:.2f}x "
        f"({results['sequential_queries_per_second']:.0f} -> "
        f"{results['batched_queries_per_second']:.0f} queries/s); "
        f"results written to {args.json}"
    )


if __name__ == "__main__":
    main()
