"""Training-data pipeline stages beyond the reference's own operators:
dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard / embedding cosine),
similarity search (brute-force / LSH / IVF ANN), text analysis, curation
(sampling, packing, dedup clustering, decontamination, boilerplate scrub),
multimodal plumbing, portable joins (hash-bucket / broadcast / anti /
as-of / range), exact distributed quantiles, and cardinality sketching.
All are Ray-Data-first: vectorized map_batches bodies run as plain tasks,
explicit shuffle keys. A per-batch stage class whose only state is a
constructor cost (compiled regexes, permutation tables, a query matrix)
runs through :func:`per_task`, which builds it once per task."""

import logging


class _EmptyPartitionSchemaFilter(logging.Filter):
    """Drops one Ray Data warning that the bucket exchanges here trigger
    on correct output. Ray's sort exchange (``groupby(key).map_groups``)
    makes one partition per input block, and a partition that receives
    no rows comes back as a zero-column table
    (``ArrowBlockAccessor.merge_sorted_blocks``); the executor then logs
    "Operator produced a RefBundle with a different schema than the
    previous one ... new schema: ." once for the sort and once for the
    map after it. :func:`joins.group_aggregate`,
    :func:`joins.hash_bucket_join` and :func:`bsp.load` have fewer keys
    than partitions whenever their input has more blocks than buckets.
    Only the empty new schema is dropped; a real schema change still
    logs."""

    def filter(self, record: logging.LogRecord) -> bool:
        msg = record.getMessage()
        return not (msg.startswith("Operator produced a RefBundle with a "
                                   "different schema")
                    and ", new schema: . " in msg)


logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state").addFilter(
    _EmptyPartitionSchemaFilter())


def per_task(cls, **ctor_kwargs):
    """A ``map_batches`` function that builds ``cls(**ctor_kwargs)`` on a
    task's first batch and reuses that instance for the task's later
    batches. The stage then runs as plain Ray Data tasks, which finish at
    any CPU count and fuse with the read before them; the constructor
    kwargs travel inside the function, which Ray Data ships to the object
    store once per operator."""
    inst = None

    def fn(batch):
        nonlocal inst
        if inst is None:
            inst = cls(**ctor_kwargs)
        return inst(batch)

    # Ray Data names the operator after the function: MapBatches(<cls>)
    fn.__name__ = cls.__name__
    return fn
