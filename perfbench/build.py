"""Build the program under test into a private copy of the package.

The ``repro`` package is copied from the checkout's ``src/`` into
``.bench_build/perfbench/pkg-<hash>/`` and the optional C kernel is
built into that copy by the checkout's own ``setup.py``
(``setup.py build_ext --build-lib <copy>``), so the benchmark measures
the extension a user's ``pip install`` or ``build_ext`` gives, with
setuptools' compiler flags and the ``Extension`` declared there.
Nothing is built into ``src/``, so a stale extension left there by
another commit can never be picked up.  The copy is byte-compiled, as an
installed package is.  The hash covers every copied file, the build
files, the compiler settings and the interpreter, so a copy is reused
only when it is identical to what a fresh build would give.
"""

from __future__ import annotations

import compileall
import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"
SOURCE = ROOT / "src" / "repro"
KERNEL_DIR = Path("core") / "kernels"


class BuildError(Exception):
    """The program under test does not build."""


def _source_files():
    for path in sorted(SOURCE.rglob("*")):
        if "__pycache__" in path.parts or not path.is_file():
            continue
        if path.suffix in (".so", ".pyd", ".pyc"):
            continue  # never carry a prebuilt extension across
        yield path


#: Files besides the package that decide how the extension is built.
BUILD_FILES = ("setup.py", "pyproject.toml")
#: Compiler settings setuptools takes from the interpreter and the
#: environment.
COMPILER_VARS = ("CC", "CFLAGS", "CCSHARED", "LDSHARED", "LDFLAGS", "CPPFLAGS")


def _build_extension(staging: Path) -> str:
    """Build the C kernel into ``staging``; return ``"ok"`` or why not."""
    command = [
        sys.executable, "setup.py", "-q", "build_ext",
        "--build-lib", str(staging),
        "--build-temp", str(staging / "build-temp"),
    ]
    try:
        proc = subprocess.run(
            command, cwd=str(ROOT), capture_output=True, text=True,
            timeout=300,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"build_ext did not run: {exc}"
    finally:
        shutil.rmtree(staging / "build-temp", ignore_errors=True)
    built = list((staging / "repro" / KERNEL_DIR).glob("_ckernels*.so"))
    if proc.returncode == 0 and built:
        return "ok"
    # The Extension is optional: without a C toolchain setuptools warns
    # and exits 0 without an extension.
    return (f"no compiled kernel (build_ext exit {proc.returncode}): "
            f"{(proc.stderr or proc.stdout).strip()[-300:]}")


def build() -> Tuple[Path, Optional[str]]:
    """Return ``(package_parent_dir, build_error)``.

    ``build_error`` is ``None`` when the compiled kernel was built; the
    copy is still usable (with the ``vector`` or ``pure`` backend) when
    there is no C toolchain.
    """
    if not (SOURCE / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SOURCE}")
    files = list(_source_files())
    digest = hashlib.sha256()
    digest.update(sys.version.encode())
    for name in COMPILER_VARS:
        digest.update(f"{name}={sysconfig.get_config_var(name)}"
                      f"|{os.environ.get(name)}\n".encode())
    for name in BUILD_FILES:
        path = ROOT / name
        digest.update(name.encode())
        digest.update(path.read_bytes() if path.is_file() else b"<none>")
    for path in files:
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    out = BUILD_ROOT / f"pkg-{digest.hexdigest()[:16]}"
    marker = out / "BUILD_STATUS"
    if marker.is_file():
        status = marker.read_text().strip()
        return out, None if status == "ok" else status
    staging = BUILD_ROOT / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    for path in files:
        dest = staging / "repro" / path.relative_to(SOURCE)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, dest)
    pkg = staging / "repro"
    status = _build_extension(staging)
    # Byte-compile like an installed package, so every cold start loads
    # .pyc files even where PYTHONDONTWRITEBYTECODE is set.
    if not compileall.compile_dir(str(pkg), quiet=1):
        raise BuildError(f"byte-compiling {SOURCE} failed")
    (staging / "BUILD_STATUS").write_text(status + "\n")
    try:
        os.replace(staging, out)
    except OSError:  # a concurrent run finished the same build first
        shutil.rmtree(staging, ignore_errors=True)
    return out, None if status == "ok" else status
