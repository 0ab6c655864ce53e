//! EFS files: immutable version sequences, and frozen blob publications.
//!
//! Writing never mutates a version — it appends the next one and
//! checkpoints, which is what makes EFS "transaction-based, storing
//! immutable versions" implementable with simple locking.
//!
//! Only the latest version is resident in the representation (the
//! `ver:NNNNNNNN` segment). Every older version already sits durably in
//! a checkpoint taken while it was latest, so appending replaces the
//! previous segment with a pointer — `(checksite, store version)` of
//! that checkpoint — and `read`/`publish` of an old version load it from
//! there. Memory and checkpoint size stay flat however many versions a
//! file accumulates. Pointers to consecutive checkpoints of consecutive
//! versions share one run in the `ptrs` segment, so a file written only
//! through this type keeps a single run. A version whose checkpoint the
//! store has since dropped (retention) reads as not found and leaves
//! `history`. Images that still carry older resident segments (the
//! earlier all-resident layout) read them directly and convert on their
//! next append.
//!
//! Files are also two-phase-commit participants: the transaction manager
//! drives `lock` / `prepare` / `commit` / `abort` operations, with the
//! staged write held in *short-term* state (a kernel crash before commit
//! aborts the transaction naturally — staged data is never checkpointed).

use bytes::Bytes;
use eden_capability::{NodeId, Rights};
use eden_kernel::{OpCtx, OpError, OpResult, Representation, TypeManager, TypeSpec};
use eden_wire::Value;

/// Segment name of version `v`.
fn ver_segment(v: u64) -> String {
    format!("ver:{v:08}")
}

/// Segment holding the pointer runs to non-resident versions.
const POINTERS: &str = "ptrs";

/// Scratch key of the newest version known to be inside a completed
/// checkpoint, with that checkpoint's site and store version.
const DURABLE: &str = "durable";

/// Where a run of consecutive non-resident versions lives: version
/// `first + i` is resident in store version `ckpt + i` at node `site`.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: u64,
    count: u64,
    site: u16,
    ckpt: u64,
}

impl Run {
    /// The checkpoint holding version `v`, if this run covers it.
    fn locate(&self, v: u64) -> Option<(NodeId, u64)> {
        (v >= self.first && v - self.first < self.count)
            .then(|| (NodeId(self.site), self.ckpt + (v - self.first)))
    }

    fn end(&self) -> u64 {
        self.first + self.count
    }

    fn to_value(self) -> Value {
        Value::List(vec![
            Value::U64(self.first),
            Value::U64(self.count),
            Value::U64(u64::from(self.site)),
            Value::U64(self.ckpt),
        ])
    }

    fn from_value(v: &Value) -> Option<Run> {
        let fields: Vec<u64> = v.as_list()?.iter().filter_map(Value::as_u64).collect();
        let [first, count, site, ckpt] = fields[..] else {
            return None;
        };
        Some(Run {
            first,
            count,
            site: u16::try_from(site).ok()?,
            ckpt,
        })
    }
}

fn runs(r: &Representation) -> Vec<Run> {
    match r.get_value(POINTERS) {
        Some(Value::List(items)) => items.iter().filter_map(Run::from_value).collect(),
        _ => Vec::new(),
    }
}

/// Version numbers with a resident `ver:` segment, ascending.
fn resident_versions(r: &Representation) -> Vec<u64> {
    r.segments_with_prefix("ver:")
        .filter_map(|s| s[4..].parse::<u64>().ok())
        .collect()
}

/// Replaces every resident segment up to `upto` (all of them inside the
/// checkpoint `ckpt` at `site`) with a pointer there.
fn retire_resident(r: &mut Representation, upto: u64, site: NodeId, ckpt: u64) {
    let retired: Vec<u64> = resident_versions(r)
        .into_iter()
        .filter(|&v| v <= upto)
        .collect();
    if retired.is_empty() {
        return;
    }
    let mut runs = runs(r);
    for v in retired {
        r.remove(&ver_segment(v));
        match runs.last_mut() {
            Some(last)
                if last.end() == v && last.site == site.0 && last.ckpt + last.count == ckpt =>
            {
                last.count += 1;
            }
            _ => runs.push(Run {
                first: v,
                count: 1,
                site: site.0,
                ckpt,
            }),
        }
    }
    r.put_value(
        POINTERS,
        &Value::List(runs.into_iter().map(Run::to_value).collect()),
    );
}

/// Bytes of version `v` (`None` for the latest): from the resident
/// segment, or else from the checkpoint its pointer names. `Ok(None)` if
/// the file never had that version or its checkpoint is gone.
fn version_bytes(ctx: &OpCtx<'_>, v: Option<u64>) -> Result<Option<Bytes>, OpError> {
    let (v, resident, pointer) = ctx.read_repr(|r| {
        let v = v.unwrap_or_else(|| r.get_u64("latest").unwrap_or(0));
        let resident = r.get(&ver_segment(v)).cloned();
        let pointer = match resident {
            Some(_) => None,
            None => runs(r).iter().find_map(|run| run.locate(v)),
        };
        (v, resident, pointer)
    });
    if resident.is_some() {
        return Ok(resident);
    }
    let Some((site, ckpt)) = pointer else {
        return Ok(None);
    };
    let past = ctx.past_checkpoint(site, ckpt)?;
    Ok(past.and_then(|r| r.get(&ver_segment(v)).cloned()))
}

/// The first version of `run` whose checkpoint the store still holds
/// (`run.end()` if none). Retention drops a store's oldest versions
/// first, so the retained ones form a suffix: binary search it.
fn first_retained(ctx: &OpCtx<'_>, run: &Run) -> Result<u64, OpError> {
    let held = |i: u64| -> Result<bool, OpError> {
        Ok(ctx
            .past_checkpoint(NodeId(run.site), run.ckpt + i)?
            .is_some())
    };
    if held(0)? {
        return Ok(run.first);
    }
    let (mut lo, mut hi) = (1, run.count);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if held(mid)? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(run.first + lo)
}

/// The EFS file type manager.
///
/// Operations (class → limit):
///
/// | op | class | rights | effect |
/// |---|---|---|---|
/// | `read [version?]` | reads (8) | READ | bytes of a version (default latest) |
/// | `write [blob]` | writes (1) | WRITE | append version, checkpoint, return its number |
/// | `latest_version` | reads | READ | highest version number (0 = empty) |
/// | `history` | reads | READ | readable version numbers |
/// | `publish [version?]` | writes | READ | clone a version into a frozen blob object, return its capability |
/// | `lock [txid, exclusive]` | control (1) | WRITE | try-acquire; returns granted |
/// | `unlock [txid]` | control | WRITE | release |
/// | `prepare [txid, blob, expected?]` | control | WRITE | stage a write (optionally validating the base version) |
/// | `commit [txid]` | control | WRITE | staged write becomes a version |
/// | `abort [txid]` | control | WRITE | drop staged write, release locks |
/// | `crash` | control | OWNER | fault simulation: drop all active state |
pub struct FileType;

impl FileType {
    /// The registered type name.
    pub const NAME: &'static str = "efs.file";
}

/// Lock state keys in scratch.
const LOCK_OWNER: &str = "lock.exclusive";
/// Scratch key of the transaction currently prepared on this file.
const PREPARED_OWNER: &str = "prepared.owner";
const LOCK_SHARED: &str = "lock.shared";

fn shared_holders(ctx: &OpCtx<'_>) -> Vec<u64> {
    match ctx.scratch_get(LOCK_SHARED) {
        Some(Value::List(items)) => items.iter().filter_map(Value::as_u64).collect(),
        _ => Vec::new(),
    }
}

fn put_shared(ctx: &OpCtx<'_>, holders: &[u64]) {
    ctx.scratch_put(
        LOCK_SHARED,
        Value::List(holders.iter().map(|&t| Value::U64(t)).collect()),
    );
}

impl TypeManager for FileType {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new(FileType::NAME)
            .class("reads", 8)
            .class("writes", 1)
            // All transaction-control operations share one limit-1 class:
            // the coordinator's lock/prepare/commit steps on one file are
            // mutually exclusive, which is precisely §4.2's "by limiting
            // a class to one process, mutual exclusion is obtained".
            .class("control", 1)
            .op("read", "reads", Rights::READ)
            .op("latest_version", "reads", Rights::READ)
            .op("history", "reads", Rights::READ)
            .op("write", "writes", Rights::WRITE)
            .op("publish", "writes", Rights::READ)
            .op("lock", "control", Rights::WRITE)
            .op("unlock", "control", Rights::WRITE)
            .op("prepare", "control", Rights::WRITE)
            .op("commit", "control", Rights::WRITE)
            .op("abort", "control", Rights::WRITE)
            .op("crash", "control", Rights::OWNER)
    }

    fn initialize(&self, ctx: &OpCtx<'_>, args: &[Value]) -> Result<(), OpError> {
        ctx.mutate_repr(|r| r.put_u64("latest", 0))?;
        if let Some(initial) = args.first().and_then(Value::as_blob) {
            let data = initial.clone();
            ctx.mutate_repr(|r| {
                r.put("ver:00000001", data);
                r.put_u64("latest", 1);
            })?;
        }
        ctx.checkpoint()?;
        Ok(())
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        match op {
            "read" => match version_bytes(ctx, args.first().and_then(Value::as_u64))? {
                Some(bytes) => Ok(vec![Value::Blob(bytes)]),
                None => Err(OpError::app(404, "no such version")),
            },
            "latest_version" => Ok(vec![Value::U64(
                ctx.read_repr(|r| r.get_u64("latest").unwrap_or(0)),
            )]),
            "history" => {
                let (mut versions, runs) = ctx.read_repr(|r| (resident_versions(r), runs(r)));
                for run in &runs {
                    versions.extend(first_retained(ctx, run)?..run.end());
                }
                versions.sort_unstable();
                versions.dedup();
                Ok(vec![Value::List(
                    versions.into_iter().map(Value::U64).collect(),
                )])
            }
            "write" => {
                let data = args
                    .first()
                    .and_then(Value::as_blob)
                    .ok_or_else(|| OpError::type_error("write(blob)"))?
                    .clone();
                let v = append_version(ctx, data)?;
                Ok(vec![Value::U64(v)])
            }
            "publish" => {
                let Some(bytes) = version_bytes(ctx, args.first().and_then(Value::as_u64))? else {
                    return Err(OpError::app(404, "no such version"));
                };
                let blob_cap = ctx.create_object(BlobType::NAME, &[Value::Blob(bytes)])?;
                Ok(vec![Value::Cap(blob_cap)])
            }
            "lock" => {
                let txid = OpCtx::u64_arg(args, 0)?;
                let exclusive = args.get(1).and_then(Value::as_bool).unwrap_or(true);
                let owner = ctx.scratch_get(LOCK_OWNER).and_then(|v| v.as_u64());
                let mut shared = shared_holders(ctx);
                let granted = if exclusive {
                    match owner {
                        Some(o) if o != txid => false,
                        _ => {
                            if shared.iter().any(|&t| t != txid) {
                                false // Other readers present.
                            } else {
                                ctx.scratch_put(LOCK_OWNER, Value::U64(txid));
                                true
                            }
                        }
                    }
                } else {
                    match owner {
                        Some(o) if o != txid => false,
                        _ => {
                            if !shared.contains(&txid) {
                                shared.push(txid);
                                put_shared(ctx, &shared);
                            }
                            true
                        }
                    }
                };
                Ok(vec![Value::Bool(granted)])
            }
            "unlock" => {
                let txid = OpCtx::u64_arg(args, 0)?;
                release_locks(ctx, txid);
                Ok(vec![])
            }
            "prepare" => {
                let txid = OpCtx::u64_arg(args, 0)?;
                let data = args
                    .get(1)
                    .and_then(Value::as_blob)
                    .ok_or_else(|| OpError::type_error("prepare(txid, blob, expected?)"))?
                    .clone();
                // A prepared participant blocks conflicting prepares until
                // its transaction commits or aborts: without this, a second
                // transaction could validate against the same base version
                // in the window between our prepare and commit, losing one
                // of the two updates.
                let owner = ctx.scratch_get(PREPARED_OWNER).and_then(|v| v.as_u64());
                if matches!(owner, Some(o) if o != txid) {
                    return Ok(vec![Value::Bool(false)]);
                }
                if let Some(expected) = args.get(2).and_then(Value::as_u64) {
                    // Optimistic validation: the write must still be based
                    // on the version the transaction read.
                    let latest = ctx.read_repr(|r| r.get_u64("latest").unwrap_or(0));
                    if latest != expected {
                        return Ok(vec![Value::Bool(false)]);
                    }
                }
                ctx.scratch_put(PREPARED_OWNER, Value::U64(txid));
                ctx.scratch_put(&format!("staged:{txid}"), Value::Blob(data));
                Ok(vec![Value::Bool(true)])
            }
            "commit" => {
                let txid = OpCtx::u64_arg(args, 0)?;
                let staged = ctx.scratch_remove(&format!("staged:{txid}"));
                let Some(Value::Blob(data)) = staged else {
                    return Err(OpError::app(409, "nothing prepared for this transaction"));
                };
                let v = append_version(ctx, data)?;
                clear_prepared(ctx, txid);
                release_locks(ctx, txid);
                Ok(vec![Value::U64(v)])
            }
            "abort" => {
                let txid = OpCtx::u64_arg(args, 0)?;
                ctx.scratch_remove(&format!("staged:{txid}"));
                clear_prepared(ctx, txid);
                release_locks(ctx, txid);
                Ok(vec![])
            }
            "crash" => {
                // Fault simulation (§4.4): the object restarts from its
                // latest checkpoint on the next invocation.
                ctx.crash();
                Ok(vec![])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// Appends version `latest + 1` and checkpoints it. Resident versions
/// that an earlier completed checkpoint already holds leave memory for
/// a pointer to that checkpoint.
fn append_version(ctx: &OpCtx<'_>, data: Bytes) -> Result<u64, OpError> {
    let durable = durable_mark(ctx);
    let v = ctx.mutate_repr(|r| {
        if let Some((upto, site, ckpt)) = durable {
            retire_resident(r, upto, site, ckpt);
        }
        let v = r.get_u64("latest").unwrap_or(0) + 1;
        r.put(ver_segment(v), data);
        r.put_u64("latest", v);
        v
    })?;
    let ckpt = ctx.checkpoint()?;
    // Short-term state: after a crash nothing is known durable until
    // the next append completes its checkpoint, so that append keeps
    // the reincarnated segments resident and the one after retires
    // them.
    if durable.is_none_or(|(upto, _, _)| v > upto) {
        ctx.scratch_put(
            DURABLE,
            Value::List(vec![
                Value::U64(v),
                Value::U64(u64::from(ctx.checksite().0)),
                Value::U64(ckpt),
            ]),
        );
    }
    Ok(v)
}

/// The newest version inside a completed checkpoint, and where that
/// checkpoint lives.
fn durable_mark(ctx: &OpCtx<'_>) -> Option<(u64, NodeId, u64)> {
    let Some(Value::List(fields)) = ctx.scratch_get(DURABLE) else {
        return None;
    };
    let fields: Vec<u64> = fields.iter().filter_map(Value::as_u64).collect();
    let [upto, site, ckpt] = fields[..] else {
        return None;
    };
    Some((upto, NodeId(u16::try_from(site).ok()?), ckpt))
}

fn clear_prepared(ctx: &OpCtx<'_>, txid: u64) {
    if ctx.scratch_get(PREPARED_OWNER).and_then(|v| v.as_u64()) == Some(txid) {
        ctx.scratch_remove(PREPARED_OWNER);
    }
}

fn release_locks(ctx: &OpCtx<'_>, txid: u64) {
    if ctx.scratch_get(LOCK_OWNER).and_then(|v| v.as_u64()) == Some(txid) {
        ctx.scratch_remove(LOCK_OWNER);
    }
    let shared: Vec<u64> = shared_holders(ctx)
        .into_iter()
        .filter(|&t| t != txid)
        .collect();
    put_shared(ctx, &shared);
}

/// One immutable, frozen version published for wide read sharing.
///
/// §5 calls for versions "replicated at multiple sites for reliability or
/// performance enhancement"; publishing freezes the blob at creation, so
/// any node can cache a replica through the kernel (§4.3) and serve
/// `read` locally.
pub struct BlobType;

impl BlobType {
    /// The registered type name.
    pub const NAME: &'static str = "efs.blob";
}

impl TypeManager for BlobType {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new(BlobType::NAME)
            .class("reads", 16)
            .op("read", "reads", Rights::READ)
            .op("size", "reads", Rights::READ)
    }

    fn initialize(&self, ctx: &OpCtx<'_>, args: &[Value]) -> Result<(), OpError> {
        let data = args
            .first()
            .and_then(Value::as_blob)
            .ok_or_else(|| OpError::type_error("blob(initial: bytes)"))?
            .clone();
        ctx.mutate_repr(|r| r.put("data", data))?;
        // Frozen from birth: immutable and cacheable.
        ctx.freeze()?;
        Ok(())
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, _args: &[Value]) -> OpResult {
        match op {
            "read" => {
                let data = ctx.read_repr(|r| r.get("data").cloned());
                Ok(vec![Value::Blob(data.unwrap_or_default())])
            }
            "size" => {
                Ok(vec![Value::U64(ctx.read_repr(|r| {
                    r.get("data").map(|b| b.len() as u64).unwrap_or(0)
                }))])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}
