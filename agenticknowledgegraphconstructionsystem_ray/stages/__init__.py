"""Ray Data stages: each module exposes either a stateless batch function
(plain task) or a callable class (actor pool) for ``Dataset.map_batches``.

Stage taxonomy mirrors SURVEY.md §7.2:
- stateless tasks: extract_text, apply_entity_ids, validate, partial
  aggregations;
- per-worker state built once from a broadcast value: TripleExtractor
  (entity linking fused in), cached per worker process behind the task
  function ``extract_records_batch`` and usable as an actor-pool class
  (``bench.py --warm-model``) — reference analog: agents holding a warm
  client/prompt (``entity-extraction-agent.ts:16-25``) and the cached
  seminal paper broadcast (``run-relationship-discovery.ts:32-47``).
"""
