"""`python -m ctrlorder`: the `ctrlorder` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
