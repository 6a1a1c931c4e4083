"""Show that the output checks catch corrupted outputs.

Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py

It runs fit-bones, one gen-tissue, select-thickness and simulate on the
demo-pipeline workspace, confirms that the checks pass on the real
outputs, then corrupts one output at a time and confirms that the
matching check fails. Exit status 0 means every corruption was caught.
"""

import json
import shutil
import struct
import sys

import run

BONE = "index_distal"


def main() -> int:
    run.import_handforge()
    import numpy as np

    import checks
    import workloads
    from handforge.cli import main as cli
    from handforge.kinematics import JointState
    from speed import SpeedClock

    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ws = workloads.make_workspace("demo-pipeline", work / "ws", seed=0)
        good = work / "good"
        runner = run.Runner(cli, SpeedClock())
        steps = [s for s in ws.steps(good) if s.command != "gen-tissue" or s.label == BONE]
        for step in steps:
            if runner.call(step) != "ok":
                print(f"FAIL: {step.command} {step.label} did not succeed")
                return 1
        rng = np.random.default_rng(0)

        def check_all(out):
            for step in steps:
                run.check_step(ws, step, out, rng)

        check_all(good)
        designs = ws.simulated()

        def drop_last_facet(out):
            p = out / f"{BONE}_shell.stl"
            data = p.read_bytes()
            (count,) = struct.unpack_from("<I", data, 80)
            p.write_bytes(data[:80] + struct.pack("<I", count - 1) + data[84:-50])

        def edit_json(name, edit):
            def corrupt(out):
                p = out / name
                doc = json.loads(p.read_text())
                edit(doc)
                p.write_text(json.dumps(doc))
            return corrupt

        def scale_key(key, factor):
            def edit(doc):
                doc[key] *= factor
            return edit

        def swap_ranking(doc):
            doc["ranking"][0], doc["ranking"][-1] = doc["ranking"][-1], doc["ranking"][0]

        def edit_csv(row, col, delta):
            def corrupt(out):
                name = sorted(designs)[0]
                p = out / f"trajectory_{name}.csv"
                rows, _ = checks.read_trajectory(p)
                rows[row, col] += delta
                p.write_text("displacement,y,z\n" + "".join(f"{d!r},{y!r},{z!r}\n" for d, y, z in rows))
            return corrupt

        def drop_transform(doc):
            doc.pop()

        corruptions = {
            "shell STL missing a facet": drop_last_facet,
            "outer volume off by 1%": edit_json(f"{BONE}_shell_report.json", scale_key("outer_volume_mm3", 1.01)),
            "support volume doubled": edit_json(f"{BONE}_shell_report.json", scale_key("support_volume_mm3", 2.0)),
            "material volume off by 0.1%": edit_json(f"{BONE}_shell_report.json",
                                                     scale_key("material_volume_mm3", 1.001)),
            "ranking order swapped": edit_json("comparison.json", swap_ranking),
            "non-monotone trajectory": edit_csv(10, 1, 5.0),
            "fingertip row off by 1e-6 mm": edit_csv(7, 2, 1e-6),
            "wrong sigma_star": edit_json("thickness.json", lambda d: d.update(sigma_star=0.3)),
            "transform log missing a bone": edit_json("transforms.json", drop_transform),
        }
        caught = 0
        for label, corrupt in corruptions.items():
            bad = work / "bad"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(good, bad)
            corrupt(bad)
            try:
                check_all(bad)
            except checks.CheckFailed as exc:
                caught += 1
                print(f"caught  {label}: {exc}")
            else:
                print(f"MISSED  {label}")

        name = sorted(designs)[0]
        cfg = designs[name]
        state = JointState(0.3, 0.2, 0.1)
        exact = checks.kinematics.cumulative_excursion(cfg, state)[2]
        nudged = JointState(0.3 + 1e-9, 0.2, 0.1)
        if checks.residual_mm(cfg, nudged, exact) > checks.RESIDUAL_MAX_MM:
            caught += 1
            print("caught  solver state off the cable constraint")
        else:
            print("MISSED  solver state off the cable constraint")
        total = len(corruptions) + 1
        print(f"{caught}/{total} corruptions caught")
        return 0 if caught == total else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
