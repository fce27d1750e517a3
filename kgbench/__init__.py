"""KG-construction benchmark (see kgbench/README.md)."""
