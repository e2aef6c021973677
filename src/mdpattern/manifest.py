"""Corpus manifests: named architectures mapped to root MD files.

Line format: ``name = path [no-includes] [heads=h1,h2,...]``; as in a
shell, a ``#`` at the start of a line or after whitespace starts a comment,
and any other ``#`` is part of a name or path; paths are resolved relative
to the manifest file.
"""

import os
import re

from . import Error, read_text
from .md_reader import DEFAULT_CONSIDERED_HEADS


class ManifestError(Error):
    status = 1  # a usage error


class ManifestEntry:
    def __init__(self, name: str, path: str, resolve_includes: bool = True,
                 considered_heads: frozenset = DEFAULT_CONSIDERED_HEADS):
        self.name = name
        self.path = path
        self.resolve_includes = resolve_includes
        self.considered_heads = considered_heads


def parse_manifest(text: str, path: str) -> list[ManifestEntry]:
    """The entries of the manifest `path` holds `text`: MD paths resolve
    relative to its directory, and each error starts ``path:line:``."""
    base_dir = os.path.dirname(os.path.abspath(path))
    entries = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = re.split(r"(?<!\S)#", raw, 1)[0].strip()
        if not line:
            continue
        name, _, rest = line.partition("=")
        name = name.strip()
        parts = rest.split()
        if not name or not parts:
            raise ManifestError("%s:%d: expected 'name = path'" % (path, lineno))
        if name in names:
            raise ManifestError("%s:%d: duplicate architecture %r" % (path, lineno, name))
        names.add(name)
        entry = ManifestEntry(name, os.path.normpath(os.path.join(base_dir, parts[0])))
        for flag in parts[1:]:
            if flag == "no-includes":
                entry.resolve_includes = False
            elif flag.startswith("heads="):
                heads = frozenset(h for h in flag[len("heads="):].split(",") if h)
                if not heads:
                    raise ManifestError("%s:%d: empty heads= list" % (path, lineno))
                entry.considered_heads = heads
            else:
                raise ManifestError("%s:%d: unknown flag %r" % (path, lineno, flag))
        entries.append(entry)
    return entries


def load_manifest(path: str) -> list[ManifestEntry]:
    entries = parse_manifest(read_text(path, ManifestError), path)
    for e in entries:
        if not os.path.isfile(e.path):
            raise ManifestError("%s: no such MD file: %s" % (e.name, e.path))
    return entries
