"""Build script: compiles the optional simplex kernel, mo_solve.

fast.c is a hand-written C twin of fuzzydea._speedups.pure, so a C
compiler is all the build needs.  Without one the package still installs
and falls back to the pure kernel.

`build_ext --inplace` also byte-compiles the package next to its source,
as `pip install` does for an installed copy.  With
PYTHONDONTWRITEBYTECODE=1 set, no process would write that cache, and
each one would compile the whole package again.  Python still checks
every .pyc against its source's mtime and size, so an edited file is
compiled afresh.
"""

import compileall
import py_compile
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CompileError

PACKAGE = Path(__file__).resolve().parent / "src" / "fuzzydea"


class BuildExtInplaceBytecode(build_ext):
    """build_ext that, in place only, also writes the package's bytecode."""

    def run(self):
        super().run()
        if self.inplace and not compileall.compile_dir(
            PACKAGE, quiet=1, invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP
        ):
            raise CompileError(f"cannot byte-compile {PACKAGE}")


# -ffp-contract=off keeps the compiled arithmetic bit-identical to the
# interpreted kernel (no fused multiply-add).
setup(
    cmdclass={"build_ext": BuildExtInplaceBytecode},
    ext_modules=[
        Extension(
            "fuzzydea._speedups.fast",
            ["src/fuzzydea/_speedups/fast.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ],
)
