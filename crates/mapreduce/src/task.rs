//! User-defined task traits: [`Mapper`], [`Reducer`], [`Merge`] (the
//! combine rule of a combiner or an aggregate stage), and the [`Emitter`]
//! they write intermediate records through.

use crate::record::ShuffleSize;
use crate::wire::Wire;
use std::hash::Hash;

/// Marker bounds for intermediate keys: hashable (partitioning), ordered
/// (deterministic grouping), cloneable (an aggregate re-emits its key), sized
/// (shuffle accounting), wire-encodable (the disk spill tier serializes
/// intermediates with the [`Wire`] codec) and sendable across task
/// threads.
pub trait MrKey: Hash + Eq + Ord + Clone + Send + Sync + ShuffleSize + Wire {}
impl<T: Hash + Eq + Ord + Clone + Send + Sync + ShuffleSize + Wire> MrKey for T {}

/// Marker bounds for intermediate values. Like keys, values must be
/// wire-encodable so shuffle partitions can spill to disk under memory
/// pressure.
pub trait MrValue: Send + Sync + ShuffleSize + Wire {}
impl<T: Send + Sync + ShuffleSize + Wire> MrValue for T {}

/// Collects records emitted by a map or reduce invocation.
#[derive(Debug)]
pub struct Emitter<K, V> {
    records: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    /// A fresh, empty emitter.
    pub fn new() -> Self {
        Emitter {
            records: Vec::new(),
        }
    }

    /// Emits one intermediate record.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.records.push((key, value));
    }

    /// Number of records emitted so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Consumes the emitter, yielding the emitted records in order.
    pub fn into_records(self) -> Vec<(K, V)> {
        self.records
    }
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A user-defined map function.
///
/// One instance is shared (by reference) across all map task threads, so
/// implementations must be `Sync`; broadcast state (the paper's "distributed
/// cache", e.g. the global `rho` table in the delta jobs) lives in fields,
/// typically behind `Arc`.
pub trait Mapper: Sync {
    /// Input key type.
    type InKey: Send;
    /// Input value type.
    type InValue: Send;
    /// Intermediate key type.
    type OutKey: MrKey;
    /// Intermediate value type.
    type OutValue: MrValue;

    /// Processes one input record, emitting zero or more intermediate
    /// records.
    fn map(
        &self,
        key: Self::InKey,
        value: Self::InValue,
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );
}

/// A user-defined reduce function.
///
/// Invoked once per distinct intermediate key with all of that key's values
/// (grouped and key-ordered by the shuffle).
pub trait Reducer: Sync {
    /// Intermediate key type (matches the mapper's `OutKey`).
    type InKey: MrKey;
    /// Intermediate value type (matches the mapper's `OutValue`).
    type InValue: MrValue;
    /// Output key type.
    type OutKey: Send;
    /// Output value type.
    type OutValue: Send;

    /// Reduces all values of one key.
    fn reduce(
        &self,
        key: &Self::InKey,
        values: Vec<Self::InValue>,
        out: &mut Emitter<Self::OutKey, Self::OutValue>,
    );
}

/// How two values of one key combine — the algebra of a map-side combiner
/// ([`Stage::combiner`]) and of an aggregate job ([`Stage::aggregate`]).
///
/// The engine folds each key's values left to right in emission order,
/// starting from the first: it never folds an empty group, so a merge
/// needs no identity. A merge that is associative and commutative bit for
/// bit gives the same answer for every map split and reduce task count;
/// one that is not (an f64 sum) is still deterministic, because the fold
/// order is fixed, but its bits follow the split.
///
/// [`Stage::combiner`]: crate::plan::Stage::combiner
/// [`Stage::aggregate`]: crate::plan::Stage::aggregate
pub trait Merge: Sync {
    /// The merged value type.
    type Value: MrValue;

    /// Folds `v` into `acc`.
    fn merge(&self, acc: &mut Self::Value, v: Self::Value);

    /// Folds `values` left to right, starting from the first.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    fn fold(&self, values: Vec<Self::Value>) -> Self::Value {
        let mut values = values.into_iter();
        let mut acc = values.next().expect("a fold needs at least one value");
        for v in values {
            self.merge(&mut acc, v);
        }
        acc
    }
}

/// Adapts a closure into a [`Mapper`] for quick jobs and tests.
pub struct FnMapper<InK, InV, OutK, OutV, F>
where
    F: Fn(InK, InV, &mut Emitter<OutK, OutV>) + Sync,
{
    f: F,
    #[allow(clippy::type_complexity)]
    _marker: std::marker::PhantomData<fn(InK, InV) -> (OutK, OutV)>,
}

impl<InK, InV, OutK, OutV, F> FnMapper<InK, InV, OutK, OutV, F>
where
    F: Fn(InK, InV, &mut Emitter<OutK, OutV>) + Sync,
{
    /// Wraps `f` as a mapper.
    pub fn new(f: F) -> Self {
        FnMapper {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<InK, InV, OutK, OutV, F> Mapper for FnMapper<InK, InV, OutK, OutV, F>
where
    InK: Send,
    InV: Send,
    OutK: MrKey,
    OutV: MrValue,
    F: Fn(InK, InV, &mut Emitter<OutK, OutV>) + Sync,
{
    type InKey = InK;
    type InValue = InV;
    type OutKey = OutK;
    type OutValue = OutV;

    fn map(&self, key: InK, value: InV, out: &mut Emitter<OutK, OutV>) {
        (self.f)(key, value, out)
    }
}

/// Adapts a closure into a [`Reducer`] for quick jobs and tests.
pub struct FnReducer<InK, InV, OutK, OutV, F>
where
    F: Fn(&InK, Vec<InV>, &mut Emitter<OutK, OutV>) + Sync,
{
    f: F,
    #[allow(clippy::type_complexity)]
    _marker: std::marker::PhantomData<fn(InK, InV) -> (OutK, OutV)>,
}

impl<InK, InV, OutK, OutV, F> FnReducer<InK, InV, OutK, OutV, F>
where
    F: Fn(&InK, Vec<InV>, &mut Emitter<OutK, OutV>) + Sync,
{
    /// Wraps `f` as a reducer.
    pub fn new(f: F) -> Self {
        FnReducer {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<InK, InV, OutK, OutV, F> Reducer for FnReducer<InK, InV, OutK, OutV, F>
where
    InK: MrKey,
    InV: MrValue,
    OutK: Send,
    OutV: Send,
    F: Fn(&InK, Vec<InV>, &mut Emitter<OutK, OutV>) + Sync,
{
    type InKey = InK;
    type InValue = InV;
    type OutKey = OutK;
    type OutValue = OutV;

    fn reduce(&self, key: &InK, values: Vec<InV>, out: &mut Emitter<OutK, OutV>) {
        (self.f)(key, values, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_collects_in_order() {
        let mut e: Emitter<u32, u32> = Emitter::new();
        assert!(e.is_empty());
        e.emit(1, 10);
        e.emit(0, 20);
        assert_eq!(e.len(), 2);
        assert_eq!(e.into_records(), vec![(1, 10), (0, 20)]);
    }

    #[test]
    fn fn_mapper_and_reducer_adapters() {
        let m = FnMapper::new(|k: u32, v: u32, out: &mut Emitter<u32, u32>| {
            out.emit(k % 2, v * 2);
        });
        let mut e = Emitter::new();
        m.map(3, 5, &mut e);
        assert_eq!(e.into_records(), vec![(1, 10)]);

        let r = FnReducer::new(|k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>| {
            out.emit(*k, vs.into_iter().sum());
        });
        let mut e = Emitter::new();
        r.reduce(&1, vec![1, 2, 3], &mut e);
        assert_eq!(e.into_records(), vec![(1, 6)]);
    }
}
