"""scipy is loaded by the first sample, not by importing the package.

This process has loaded scipy already, so every test runs its code in a
fresh interpreter and reads the result from its standard output.
"""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from lhsattack import samplers

from reference import ref_lhs_normal


def run_fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_cli_does_not_load_scipy():
    out = run_fresh("""
        import sys
        import lhsattack, lhsattack.cli
        print("scipy" in sys.modules)
    """)
    assert out == "False\n"


def test_an_oracle_serve_session_does_not_load_scipy(mlp_fixture_path):
    out = run_fresh(f"""
        import io, sys
        from lhsattack import cli
        row = " ".join(["0.5"] * 64) + "\\n"
        request = "HELLO m=64\\n" + row * 3
        sys.stdin = io.TextIOWrapper(io.BytesIO(request.encode("ascii")))
        sys.stdout = io.TextIOWrapper(io.BytesIO())
        rc = cli.main(["oracle-serve", "mlp:weights={mlp_fixture_path},class=0"])
        sys.stdout.flush()
        replies = sys.stdout.buffer.getvalue().decode("ascii").split()
        print(rc, replies[0], len(replies), "scipy" in sys.modules, file=sys.__stdout__)
    """)
    assert out == "0 OK 4 False\n"


FIRST_CALLS = [
    "lhs_normal(5, 3, seed=1).rows",
    "srs_normal(5, 3, seed=1).rows",
    "inverse_normal_cdf(np.array([0.025, 0.5, 0.975]))",
    "normal_cdf(np.array([-1.96, 0.0, 1.96]))",
]


@pytest.mark.parametrize("call", FIRST_CALLS)
def test_each_quantile_user_works_as_the_first_call(call):
    out = run_fresh(f"""
        import sys
        import numpy as np
        from lhsattack.samplers import *
        assert "scipy" not in sys.modules
        print({call}.tobytes().hex())
    """)
    want = eval(call, vars(samplers) | {"np": np})
    assert bytes.fromhex(out) == want.tobytes()


def test_a_large_first_batch_imports_on_the_calling_thread_and_keeps_its_bits():
    # 150 x 3072 is above _SPLIT_ELEMENTS, so its chunks may reach the pool;
    # scipy.special must be imported before they do, by the caller.
    shape = (150, 3072)
    assert shape[0] * shape[1] >= samplers._SPLIT_ELEMENTS
    out = run_fresh(f"""
        import sys, threading
        importers = []

        class Watch:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy.special":
                    importers.append(threading.current_thread().name)

        sys.meta_path.insert(0, Watch())
        from lhsattack.samplers import lhs_normal
        batch = lhs_normal(*{shape}, seed=7)
        print(importers)
        print(batch.rows.tobytes().hex())
        print(batch.stratum_index.tobytes().hex())
    """)
    importers, rows, strata = out.split("\n")[:3]
    assert importers == "['MainThread']"
    want_rows, want_strata = ref_lhs_normal(*shape, 7)
    assert bytes.fromhex(rows) == want_rows.tobytes()
    assert bytes.fromhex(strata) == want_strata.tobytes()
