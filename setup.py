"""Build script: compiles the optional simplex kernel, mo_solve.

fast.c is a hand-written C twin of fuzzydea._speedups.pure, so a C
compiler is all the build needs.  Without one the package still installs
and falls back to the pure kernel.
"""

from setuptools import Extension, setup

# -ffp-contract=off keeps the compiled arithmetic bit-identical to the
# interpreted kernel (no fused multiply-add).
setup(
    ext_modules=[
        Extension(
            "fuzzydea._speedups.fast",
            ["src/fuzzydea/_speedups/fast.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
