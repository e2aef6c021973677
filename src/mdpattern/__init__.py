"""mdpattern: extract machine-independent RTL patterns from GCC-style
machine description files and measure cross-architecture similarity.

The package root holds what every layer shares, so that a command that
reads and writes archives only, `recombine` or `merge`, loads no lexer."""

__version__ = "0.1.0"


class Error(Exception):
    """A failure the CLI reports as ``mdpattern: <message>``; `status` is its
    exit status, 2 (parse failure) unless a subclass or the raiser says
    otherwise."""

    status = 2

    def __init__(self, msg, status=None):
        super().__init__(msg)
        self.status = status or self.status


def read_text(path, error=Error):
    """The text of the UTF-8 file `path`; a file that cannot be opened or
    decoded raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error("%s: %s" % (path, exc)) from None
    except OSError as exc:
        raise error("%s: %s" % (path, exc.strerror)) from None


#: How deep input may nest: the lists and vectors of one top-level form and
#: the files of one include chain, each counting the outermost.  Real MD
#: forms nest about a dozen levels; the recursive tree walks take up to three
#: stack frames a level, well inside Python's default recursion limit.
MAX_DEPTH = 200

#: A regex class of the characters an atom holds: an atom is a maximal run
#: of them, and whitespace and the characters ``()[]{};"`` end an atom.
ATOM_CHAR = r'[^ \t\r\n\f\v()\[\]{};"]'


def escape_string(s: str) -> str:
    """The body of the string literal that reads back as `s`."""
    return (s.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n").replace("\t", "\\t"))
