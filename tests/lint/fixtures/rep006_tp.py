# True positives for REP006: unpicklable callables into pool dispatch.
from repro.parallel import ParallelMap


def run_lambda(pool: ParallelMap, tasks):
    return pool.run(lambda t: t + 1, tasks)  # finding: lambda


def run_closure(pool, tasks, scale):
    def scaled(t):  # closes over scale — will not pickle
        return t * scale

    return pool.run(scaled, tasks)  # finding: nested function


def submit_lambda(executor, batches, settings):
    return executor.run_grouped(  # finding: lambda into executor dispatch
        lambda t: t + 1, None, batches, settings
    )


class Runner:
    def go(self, pool, tasks):
        return pool.run_grouped(
            self.evaluate,  # finding: instance method
            self.evaluate_batch,  # finding: instance method
            tasks,
            group_key=str,
        )

    def evaluate(self, task):
        return task

    def evaluate_batch(self, batch):
        return list(batch)
