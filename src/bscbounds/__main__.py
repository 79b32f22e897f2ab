"""`python -m bscbounds`: the same command line as the `bscbounds` script."""
from .cli import run

if __name__ == "__main__":
    run()
