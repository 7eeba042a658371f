"""One end-to-end benchmark for the whole system (see README.md)."""
