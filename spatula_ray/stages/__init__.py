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
