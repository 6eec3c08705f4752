"""Build script: compiles the optional simplex pivot kernel.

The extension is a twin of fuzzydea._speedups.pure.  With Cython it is
generated from fast.pyx; without it the committed fast.c is compiled, so
a C compiler is all an offline build needs.  If the compiler is missing
too the package still installs and falls back to the pure kernel.
"""

from setuptools import Extension, setup

SOURCE = "src/fuzzydea/_speedups/fast"
# -ffp-contract=off keeps the compiled arithmetic bit-identical to the
# interpreted kernel (no fused multiply-add).
COMPILE_ARGS = ["-O3", "-ffp-contract=off"]

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

if cythonize is None:
    ext_modules = [
        Extension(
            "fuzzydea._speedups.fast",
            [SOURCE + ".c"],
            extra_compile_args=COMPILE_ARGS,
            optional=True,
        )
    ]
else:
    ext_modules = cythonize(
        [
            Extension(
                "fuzzydea._speedups.fast",
                [SOURCE + ".pyx"],
                extra_compile_args=COMPILE_ARGS,
                optional=True,
            )
        ],
        compiler_directives={
            "language_level": "3",
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
            "initializedcheck": False,
        },
    )

setup(ext_modules=ext_modules)
