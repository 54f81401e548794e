"""Record goldens.json: the limit file of every signed variant of every base
instance of the curve and ci-d2 workloads, as SHA-256 of input and output.

Run from the repository root, only when the program's output is meant to
change:

    python3 perfbench/record_goldens.py
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402

import run  # noqa: E402


def main():
    run.import_program()
    import instances
    import workloads

    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "goldens.lis"
    bases = [(instances.CURVE_TEXT, 9)] + [(t, 5) for t in instances.complete_intersections()]
    goldens = {}
    for text, mmax in bases:
        for variant in instances.all_sign_variants(text):
            path = run.OUT / "goldens.ideal"
            path.write_text(variant, encoding="utf-8")
            code, _, err = workloads.run_cli(["limit", "-i", str(path), "--mmax", str(mmax), "-o", str(work)])
            if code != 0:
                raise SystemExit(f"error: limit failed on\n{variant}{err}")
            goldens[workloads.sha256(variant)] = workloads.sha256(work.read_text(encoding="utf-8"))
            print(f"recorded {len(goldens)}", flush=True)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
