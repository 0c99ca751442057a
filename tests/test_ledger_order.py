"""The winning pipeline's one time-order rule in `chain.validate_chain`.

`reference_validate_chain` is the validator as it was when each of the
pipeline's orderings had its own rule: per-kind time order, publication
before the pipeline, commitment before the challenge, proof before the
votes, and votes before the settlement. The one rule must flag every
ledger those rules flag, and also two forgeries they let through.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedchain import chain


def reference_validate_chain(ledger: chain.Chain) -> list[str]:
    """`chain.validate_chain` before its time-order rules were folded into one."""
    violations: list[str] = []
    for idx, block in enumerate(ledger.blocks):
        if idx == 0:
            continue
        prev = ledger.blocks[idx - 1]
        if block.prev_hash != prev.hash():
            violations.append(f"height {block.height}: broken hash link")
        if block.height != prev.height + 1:
            violations.append(f"height {block.height}: non-monotone height")
        if type(block.task_id) is not int:
            violations.append(f"height {block.height}: task id {block.task_id!r} is not an integer")
        if not chain._is_finite_number(block.timestamp):
            violations.append(f"height {block.height}: block timestamp {block.timestamp!r} "
                              "is not a finite number")
        malformed = [
            f"height {block.height}: transaction {i}: {why}"
            for i, tx in enumerate(block.transactions)
            if (why := chain._malformed_claim(tx)) is not None
        ]
        if malformed:
            violations.extend(malformed)
            continue
        order = [chain.TX_KINDS.index(tx.kind) for tx in block.transactions]
        if order != sorted(order):
            violations.append(f"height {block.height}: transaction kinds out of order")
        by_kind: dict[str, list[chain.Transaction]] = {}
        for tx in block.transactions:
            by_kind.setdefault(tx.kind, []).append(tx)
        for kind, txs in by_kind.items():
            times = [tx.timestamp for tx in txs]
            if times != sorted(times):
                violations.append(
                    f"height {block.height}: {kind} timestamps out of order"
                )
        # the winning pipeline must run publish -> commit -> proof -> votes -> settle
        publishes = by_kind.get("TaskPublish", [])
        pipeline = [
            tx for kind in ("ModelCommit", "ProofSubmit", "VerifyVote", "RewardSettle")
            for tx in by_kind.get(kind, [])
        ]
        if publishes and pipeline:
            if min(tx.timestamp for tx in pipeline) < max(t.timestamp for t in publishes):
                violations.append(
                    f"height {block.height}: pipeline started before task publication"
                )
        commits = by_kind.get("ModelCommit", [])
        if any(c.author != block.proposer for c in commits):
            violations.append(f"height {block.height}: proposer is not the model committer")
        for vote in by_kind.get("VerifyVote", []):
            if vote.payload.get("accept") is not True:
                violations.append(f"height {block.height}: vote by {vote.author} does not accept")
        for tx in by_kind.get("PoolRegister", []):
            members = tx.payload.get("members")
            if not members or members[0] != tx.payload.get("head"):
                violations.append(f"height {block.height}: pool {tx.payload.get('pool')} "
                                  "members do not start with its head")
        pools_by_id = {
            r.payload.get("pool"): {str(m) for m in r.payload.get("members", [])}
            for r in by_kind.get("PoolRegister", [])
        }
        for settle in by_kind.get("RewardSettle", []):
            if settle.timestamp != block.timestamp:
                violations.append(f"height {block.height}: reward settled at {settle.timestamp}, "
                                  f"not at the block timestamp {block.timestamp}")
            credits = settle.payload.get("credits", {})
            if publishes and sum(credits.values()) != publishes[0].payload.get("reward"):
                violations.append(f"height {block.height}: credits do not sum to the task reward")
            if pools_by_id:
                members = pools_by_id.get(commits[0].payload.get("pool") if commits else None, set())
                outside = sorted(node for node in credits if node not in members)
                if outside:
                    violations.append(
                        f"height {block.height}: credits to nodes {outside} outside the committing pool"
                    )
        for proof in by_kind.get("ProofSubmit", []):
            matching = [c for c in commits if c.payload.get("com") == proof.payload.get("com")]
            if not matching:
                violations.append(
                    f"height {block.height}: proof without matching model commitment"
                )
            elif min(c.timestamp for c in matching) > proof.timestamp:
                violations.append(
                    f"height {block.height}: challenge derived before commitment"
                )
            else:
                votes = [
                    v for v in by_kind.get("VerifyVote", [])
                    if v.payload.get("com") == proof.payload.get("com")
                ]
                if votes and min(v.timestamp for v in votes) < proof.timestamp:
                    violations.append(
                        f"height {block.height}: vote cast before proof submission"
                    )
        for settle in by_kind.get("RewardSettle", []):
            votes = by_kind.get("VerifyVote", [])
            if votes and settle.timestamp < max(v.timestamp for v in votes):
                violations.append(
                    f"height {block.height}: reward settled before the vote quorum"
                )
    task_ids = [b.task_id for b in ledger.blocks[1:] if type(b.task_id) is int]
    if len(task_ids) != len(set(task_ids)):
        violations.append("duplicate block for a task")
    return violations


def reexported(ledger, tmp_path, mutate):
    """A copy of `ledger` whose head block `mutate` edited, exported with
    fresh hashes and loaded back."""
    ledger = copy.deepcopy(ledger)
    mutate(ledger.head())
    path = tmp_path / "ledger.jsonl"
    ledger.export_jsonl(str(path))
    return chain.load_chain_jsonl(str(path))


def first(block, kind):
    return next(tx for tx in block.transactions if tx.kind == kind)


def second_commit_after_the_proof(block):
    """A second `ModelCommit`, timed after the proof. Returns the pair the
    rule names, the later transaction in ledger order first."""
    commit, proof = first(block, "ModelCommit"), first(block, "ProofSubmit")
    forged = copy.deepcopy(commit)
    forged.timestamp = proof.timestamp + 1.0
    block.transactions.insert(block.transactions.index(commit) + 1, forged)
    return proof, forged


def vote_before_the_proof_for_another_commitment(block):
    """The first vote cast before the proof, naming another commitment."""
    proof, vote = first(block, "ProofSubmit"), first(block, "VerifyVote")
    vote.payload["com"] = "f" * 64
    vote.timestamp = proof.timestamp - 1.0
    return vote, proof


def out_of_order(height, tx, prev):
    return (f"height {height}: timestamps out of order: {tx.kind} at {tx.timestamp} "
            f"before the {prev.kind} at {prev.timestamp}")


@pytest.mark.parametrize("mode", ["fedchain", "fedavg_central"])
@pytest.mark.parametrize("forge", [second_commit_after_the_proof,
                                   vote_before_the_proof_for_another_commitment])
def test_forgery_flagged_once_where_the_old_rules_pass_it(mode_ledgers, tmp_path, mode, forge):
    pair = []
    loaded = reexported(mode_ledgers[mode], tmp_path, lambda block: pair.extend(forge(block)))
    assert reference_validate_chain(loaded) == []
    tx, prev = pair
    assert chain.validate_chain(loaded) == [out_of_order(1, tx, prev)]


@pytest.mark.parametrize("mode", ["fedchain", "fedavg_central"])
@pytest.mark.parametrize("kind", ["ModelCommit", "ProofSubmit", "VerifyVote"])
def test_pipeline_timestamp_below_the_one_before_flagged(mode_ledgers, tmp_path, mode, kind):
    pair = []

    def mutate(block):
        pipeline = [tx for tx in block.transactions if tx.kind != "PoolRegister"]
        idx = pipeline.index(first(block, kind))
        pipeline[idx].timestamp = pipeline[idx - 1].timestamp - 0.5
        pair.extend(pipeline[idx - 1:idx + 1])

    loaded = reexported(mode_ledgers[mode], tmp_path, mutate)
    prev, tx = pair
    assert chain.validate_chain(loaded) == [out_of_order(1, tx, prev)]


def edit_head(data, block):
    """One edit of the head block: a timestamp (of a transaction or of the
    block) moved to another's, near it or anywhere; a commitment replaced;
    or a transaction copied, dropped or swapped with another."""
    txs = block.transactions
    times = [tx.timestamp for tx in txs] + [block.timestamp]
    new_time = st.one_of(
        st.tuples(st.sampled_from(times), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])).map(sum),
        st.floats(-10.0, 1e4), st.integers(-10, 10**4),
    )
    action = data.draw(st.sampled_from(["time", "block_time", "com", "copy", "drop", "swap"]))
    if action == "block_time" or not txs:
        block.timestamp = data.draw(new_time)
        return
    i = data.draw(st.integers(0, len(txs) - 1))
    if action == "time":
        txs[i].timestamp = data.draw(new_time)
    elif action == "com":
        coms = sorted({tx.payload["com"] for tx in txs if "com" in tx.payload} | {"f" * 64})
        txs[i].payload["com"] = data.draw(st.sampled_from(coms))
    elif action == "copy":
        txs.insert(data.draw(st.integers(0, len(txs))), copy.deepcopy(txs[i]))
    elif action == "drop":
        del txs[i]
    else:
        j = data.draw(st.integers(0, len(txs) - 1))
        txs[i], txs[j] = txs[j], txs[i]


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_flags_every_ledger_the_old_rules_flag(mode_ledgers, data):
    ledger = copy.deepcopy(mode_ledgers[data.draw(st.sampled_from(chain.MODES), label="mode")])
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        edit_head(data, ledger.head())
    if reference_validate_chain(ledger):
        assert chain.validate_chain(ledger)
