"""``python -m shancap``: the same command line as the ``shancap`` script."""

from .cli import main

if __name__ == "__main__":
    main()
