"""`python -m fraudkit` runs the command-line interface."""

from fraudkit.cli import main

if __name__ == "__main__":
    main()
