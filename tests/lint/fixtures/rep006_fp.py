# False positives REP006 must NOT flag.
from repro.parallel import ParallelMap


def evaluate(task):  # module-level: pickles by qualified name
    return task + 1


def run_ok(pool: ParallelMap, tasks):
    return pool.run(evaluate, tasks)


def submit_ok(executor, batches, settings):
    # module-level fn through executor dispatch pickles fine
    return executor.run_grouped(evaluate, None, batches, settings)


def unrelated_receiver(app, tasks):
    # .run on a non-pool receiver is somebody else's API
    return app.run(lambda t: t, tasks)


def unrelated_submit(scheduler, batches):
    # .run_grouped on a non-executor receiver is somebody else's API
    return scheduler.run_grouped(lambda t: t, None, batches)
