"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train-1s --seed 0 --seconds 45 --trace 0

Run it from the repository root. It pins BLAS and OpenMP to one thread,
runs the workload in a child process whose address space is capped (so
a run that keeps too much memory ends as a counted failure instead of
exhausting the machine), prints a report, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
per-layer ones, from a run traced by ``tracer.py``. The full result,
with the environment, sample counts and checked outputs, is written to
``.perfbench/results/``. See ``perfbench/NOTES.md`` for what each metric
means on each workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-1s", "eval-4s")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Below the 7.8 GB of the machine this was written on; train-1s peaks near 3.2 GiB RSS.
ADDRESS_SPACE_CAP = 6 * 2**30
TIME_LIMIT_S = 170.0

# Names the report prints for each workload's end-to-end metrics.
REPORT_NAMES = {
    "train-1s": {
        "items_per_s": "train_examples_per_s",
        "item_s_p50": "train_step_s_p50",
        "model_rtf_p50": "forward_rtf_p50",
    },
    "eval-4s": {
        "items_per_s": "eval_utts_per_s",
        "item_s_p50": "eval_utt_s_p50",
        "model_rtf_p50": "separate_rtf_p50",
    },
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("TASTAS_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(env: dict) -> dict:
    """Interpreter, numpy and BLAS versions and thread settings of the child."""
    probe = (
        "import json, sys, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n"
    )
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        info = json.loads(out.stdout) if out.returncode == 0 else {"probe_error": out.stderr[-500:]}
    except subprocess.TimeoutExpired:
        info = {"probe_error": "timed out"}
    info["threads"] = {var: env.get(var) for var in THREAD_VARS}
    info["TASTAS_THREADS"] = env.get("TASTAS_THREADS", "unset")
    info["nproc"] = len(os.sched_getaffinity(0))
    info["address_space_cap_bytes"] = ADDRESS_SPACE_CAP
    return info


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def run_workload(args, env: dict, work: Path, result_path: Path) -> dict | None:
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--work-dir", str(work),
        "--result", str(result_path),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, preexec_fn=cap_memory, stdout=sys.stderr, timeout=TIME_LIMIT_S
        )
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {TIME_LIMIT_S:.0f} s and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"workload process exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="measured time (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the smoke test's size")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tastas" / "__init__.py").is_file():
        print(f"no tastas sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(config["run_seconds"])

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    result_path = out_dir / "results" / f"{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    env = child_env()
    started = time.time()
    try:
        result = run_workload(args, env, work, result_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if result is None:
        result = {"attempted": 1, "failed": 1, "failed_checks": [{"check": "workload process completed"}]}
    key = "per_layer" if args.trace else "end_to_end"
    wanted = config[key]
    raw = result.get(key, {})
    metrics = {}
    for spec in wanted:
        value = raw.get(spec["name"])
        value = value["value"] if isinstance(value, dict) else value
        if isinstance(value, (int, float)) and math.isfinite(value):
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    correct = failed == 0 and len(metrics) == len(wanted)

    result.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        wall_s=time.time() - started,
        environment=environment(env),
        fail_rate=failed / attempted,
        correct=correct,
    )
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} scale={args.scale} result={result_path.relative_to(ROOT)}")
    env_info = result["environment"]
    print(
        f"# python {env_info.get('python')} numpy {env_info.get('numpy')} {env_info.get('blas')} "
        f"{env_info.get('blas_version')} nproc={env_info['nproc']} threads={env_info['threads']} "
        f"TASTAS_THREADS={env_info['TASTAS_THREADS']}"
    )
    names = REPORT_NAMES[args.workload]
    for name, m in metrics.items():
        alias = f" ({names[name]})" if name in names else ""
        print(f"{name}{alias}\t{m['value']:.6g}\t{m['unit']}")
    samples = {k: v for k, v in result.get("end_to_end", {}).items() if k.endswith("samples")}
    if samples:
        print("samples\t" + " ".join(f"{k}={v}" for k, v in sorted(samples.items())))
    print(f"fail_rate\t{failed / attempted:.6g}\tratio\t({failed} of {attempted} operations and checks failed)")
    failures = result.get("failed_checks", [])
    for failure in failures[:10]:
        print(f"FAILED\t{failure.get('check')}\t{failure.get('detail', '')[:300]}")
    if len(failures) > 10:
        print(f"FAILED\t... and {len(failures) - 10} more in the result file")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
