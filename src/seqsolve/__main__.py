"""``python -m seqsolve``: the command line driver of seqsolve.cli."""

from .cli import main

if __name__ == "__main__":
    main()
