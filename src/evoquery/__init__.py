"""Evolutionary keyword-query engine with a search-relevance evaluation harness."""
