"""Workload registry: alias → scene-file discovery.

The search path, in precedence order (later entries override earlier
ones so a user file can shadow a pack scene):

1. the committed scenario pack (``src/repro/workloads/dsl/pack/``);
2. ``./workloads`` relative to the working directory (where
   ``repro workloads add`` installs files);
3. every directory in ``$REPRO_WORKLOAD_PATH`` (``os.pathsep``-joined).

Because discovery is purely file + environment based, every execution
context sees the same aliases: supervised workers (``--jobs`` and
supervised runs) and service-daemon workers all inherit the
environment and working directory, so a DSL workload submitted to any
of them resolves identically — no in-process registration to lose
across a ``fork``/``spawn``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

from ...errors import WorkloadError

__all__ = [
    "DEFAULT_USER_DIR",
    "PACK_DIR",
    "WORKLOAD_PATH_ENV",
    "add_workload_file",
    "build_dsl_scene",
    "discover",
    "dsl_aliases",
    "is_dsl_alias",
    "load_dsl_workload",
    "register_search_dir",
    "workload_native_config",
    "workload_native_frames",
]

#: The committed scenario pack shipped inside the package.
PACK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pack")

#: Working-directory-relative user dir ``repro workloads add`` fills.
DEFAULT_USER_DIR = "workloads"

#: ``os.pathsep``-separated extra directories to scan.
WORKLOAD_PATH_ENV = "REPRO_WORKLOAD_PATH"

#: Extensions discovery considers.
SCENE_EXTENSIONS = (".yaml", ".yml", ".json")


def register_search_dir(path) -> str:
    """Append a directory to ``$REPRO_WORKLOAD_PATH`` (idempotent).

    Mutating the environment — rather than an in-process set — is what
    makes the registration visible to every worker subprocess the
    harness or the service daemon forks afterwards.  Returns the
    absolute path that was registered.
    """
    path = os.path.abspath(os.fspath(path))
    if not os.path.isdir(path):
        raise WorkloadError(f"workload directory {path!r} does not exist")
    existing = [
        entry for entry in
        os.environ.get(WORKLOAD_PATH_ENV, "").split(os.pathsep) if entry
    ]
    if path not in existing:
        existing.append(path)
        os.environ[WORKLOAD_PATH_ENV] = os.pathsep.join(existing)
    return path


def search_dirs() -> list:
    """The discovery search path, lowest precedence first."""
    dirs = [PACK_DIR]
    user_dir = os.path.abspath(DEFAULT_USER_DIR)
    if os.path.isdir(user_dir):
        dirs.append(user_dir)
    for entry in os.environ.get(WORKLOAD_PATH_ENV, "").split(os.pathsep):
        if entry and os.path.isdir(entry):
            dirs.append(os.path.abspath(entry))
    return dirs


@dataclasses.dataclass(frozen=True)
class WorkloadEntry:
    """One discovered DSL workload."""

    alias: str
    path: str
    origin: str  # "pack" | "user" | "env"


def discover() -> dict:
    """``{alias: WorkloadEntry}`` over the whole search path.

    The alias is the file's **stem** — cheap to scan without parsing
    every document; :func:`load_dsl_workload` verifies the document's
    ``name`` matches at load time, so a renamed file cannot silently
    serve a scene under the wrong alias.  Later search-path entries
    shadow earlier ones.
    """
    entries: dict = {}
    for directory in search_dirs():
        if directory == PACK_DIR:
            origin = "pack"
        elif directory == os.path.abspath(DEFAULT_USER_DIR):
            origin = "user"
        else:
            origin = "env"
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        for filename in names:
            stem, ext = os.path.splitext(filename)
            if ext.lower() not in SCENE_EXTENSIONS:
                continue
            entries[stem] = WorkloadEntry(
                alias=stem, path=os.path.join(directory, filename),
                origin=origin,
            )
    return entries


def dsl_aliases() -> tuple:
    """Every discoverable DSL workload alias, sorted."""
    return tuple(sorted(discover()))


def is_dsl_alias(alias: str) -> bool:
    return alias in discover()


def load_dsl_workload(alias: str):
    """The validated :class:`~.loader.WorkloadDoc` behind an alias."""
    from .loader import load_document

    entry = discover().get(alias)
    if entry is None:
        raise WorkloadError(
            f"no DSL workload {alias!r} on the search path "
            f"({os.pathsep.join(search_dirs())})"
        )
    document = load_document(entry.path)
    if document.name != alias:
        raise WorkloadError(
            f"workload file {entry.path!r} declares name "
            f"{document.name!r} but is registered as {alias!r}; "
            "rename the file or fix the document"
        )
    return document


def build_dsl_scene(alias: str):
    """Expand the named DSL workload into a fresh ``Scene``."""
    from .expand import expand_scene

    return expand_scene(load_dsl_workload(alias))


def workload_native_config(alias: str, base_config):
    """``base_config`` with the document's native ``defaults`` applied
    (screen resolution and tile size; missing keys leave the base
    untouched).  Builtin aliases pass through unchanged."""
    if not is_dsl_alias(alias):
        return base_config
    defaults = load_dsl_workload(alias).defaults
    if not defaults:
        return base_config
    overrides = {}
    if "screen" in defaults:
        overrides["screen_width"] = defaults["screen"][0]
        overrides["screen_height"] = defaults["screen"][1]
    if "tile_size" in defaults:
        overrides["tile_size"] = defaults["tile_size"]
    if not overrides:
        return base_config
    return dataclasses.replace(base_config, **overrides)


def workload_native_frames(alias: str):
    """The document's native run length, or ``None``."""
    if not is_dsl_alias(alias):
        return None
    return load_dsl_workload(alias).defaults.get("frames")


def add_workload_file(path, dest_dir=None) -> str:
    """Validate a scene file and install it on the search path.

    The file is copied into ``dest_dir`` (default ``./workloads``) under
    ``<document name>.<original extension>``, so the registered alias
    always matches the document's own ``name``.  Refuses to shadow a
    builtin alias or overwrite a different existing registration.
    Returns the installed path.
    """
    from ..games import builtin_aliases
    from .loader import load_path

    document = load_path(path)
    alias = document.name
    if alias in builtin_aliases():
        raise WorkloadError(
            f"workload name {alias!r} collides with a builtin benchmark; "
            "pick a different 'name'"
        )
    dest_dir = os.path.abspath(dest_dir or DEFAULT_USER_DIR)
    os.makedirs(dest_dir, exist_ok=True)
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext not in SCENE_EXTENSIONS:
        ext = ".yaml"
    destination = os.path.join(dest_dir, alias + ext)
    source = os.path.abspath(os.fspath(path))
    if os.path.exists(destination) and not os.path.samefile(
            source, destination):
        existing = load_path(destination)
        if existing.data != document.data:
            raise WorkloadError(
                f"workload {alias!r} already registered at "
                f"{destination!r} with different content; remove it "
                "first or rename the new document"
            )
    if not (os.path.exists(destination)
            and os.path.samefile(source, destination)):
        shutil.copyfile(source, destination)
    return destination
