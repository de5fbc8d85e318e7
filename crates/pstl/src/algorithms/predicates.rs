//! Quantifier and comparison algorithms: `all_of`, `any_of`, `none_of`,
//! `count`, `equal`, `mismatch`, `lexicographical_compare`.

use std::cmp::Ordering;

use crate::algorithms::find_search::find_first_index;
use crate::algorithms::map_chunks;
use crate::policy::ExecutionPolicy;

/// Whether any element satisfies `pred` (`std::any_of`), with parallel
/// early exit.
pub fn any_of<T, F>(policy: &ExecutionPolicy, data: &[T], pred: F) -> bool
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    find_first_index(policy, data.len(), |i| pred(&data[i])).is_some()
}

/// Whether all elements satisfy `pred` (`std::all_of`). Vacuously true on
/// empty input.
pub fn all_of<T, F>(policy: &ExecutionPolicy, data: &[T], pred: F) -> bool
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    !any_of(policy, data, |x| !pred(x))
}

/// Whether no element satisfies `pred` (`std::none_of`).
pub fn none_of<T, F>(policy: &ExecutionPolicy, data: &[T], pred: F) -> bool
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    !any_of(policy, data, pred)
}

/// Number of elements equal to `value` (`std::count`).
pub fn count<T>(policy: &ExecutionPolicy, data: &[T], value: &T) -> usize
where
    T: PartialEq + Sync,
{
    count_if(policy, data, |x| x == value)
}

/// Number of elements satisfying `pred` (`std::count_if`).
/// # Examples
/// ```
/// use pstl::ExecutionPolicy;
///
/// let policy = ExecutionPolicy::seq();
/// let v = [1, -2, 3, -4, 5];
/// assert_eq!(pstl::count_if(&policy, &v, |&x| x > 0), 3);
/// ```
pub fn count_if<T, F>(policy: &ExecutionPolicy, data: &[T], pred: F) -> usize
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    map_chunks(policy, data.len(), &|r| {
        crate::kernel::partition::count_matches(&data[r], &pred)
    })
    .into_iter()
    .sum()
}

/// Index of the first position where `a` and `b` differ, or `None` if they
/// agree over `min(a.len(), b.len())` elements (`std::mismatch`; like the
/// two-iterator overload, comparison stops at the shorter slice).
pub fn mismatch<T>(policy: &ExecutionPolicy, a: &[T], b: &[T]) -> Option<usize>
where
    T: PartialEq + Sync,
{
    if policy.is_seq() {
        return crate::kernel::compare::mismatch(a, b);
    }
    let n = a.len().min(b.len());
    find_first_index(policy, n, |i| a[i] != b[i])
}

/// Whether the two slices are elementwise equal (`std::equal`; like the
/// C++ two-range overload, differing lengths compare unequal).
pub fn equal<T>(policy: &ExecutionPolicy, a: &[T], b: &[T]) -> bool
where
    T: PartialEq + Sync,
{
    if policy.is_seq() {
        return crate::kernel::compare::equal(a, b);
    }
    a.len() == b.len() && mismatch(policy, a, b).is_none()
}

/// `std::equal` with an explicit element predicate.
pub fn equal_by<T, U, F>(policy: &ExecutionPolicy, a: &[T], b: &[U], eq: F) -> bool
where
    T: Sync,
    U: Sync,
    F: Fn(&T, &U) -> bool + Sync,
{
    a.len() == b.len() && find_first_index(policy, a.len(), |i| !eq(&a[i], &b[i])).is_none()
}

/// Lexicographic three-way comparison of two slices.
///
/// Returns [`Ordering`] rather than C++'s `bool` (strictly more
/// information; `lexicographical_compare(a, b) == true` in C++ iff this
/// returns [`Ordering::Less`]).
pub fn lexicographical_compare<T>(policy: &ExecutionPolicy, a: &[T], b: &[T]) -> Ordering
where
    T: Ord + Sync,
{
    match mismatch(policy, a, b) {
        Some(i) => a[i].cmp(&b[i]),
        None => a.len().cmp(&b.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstl_executor::{build_pool, Discipline};

    fn policies() -> Vec<ExecutionPolicy> {
        vec![
            ExecutionPolicy::seq(),
            ExecutionPolicy::par(build_pool(Discipline::ForkJoin, 3)),
            ExecutionPolicy::par(build_pool(Discipline::WorkStealing, 2)),
            ExecutionPolicy::par(build_pool(Discipline::TaskPool, 2)),
        ]
    }

    #[test]
    fn quantifiers_basic() {
        for policy in policies() {
            let data: Vec<i64> = (0..10_000).collect();
            assert!(any_of(&policy, &data, |&x| x == 9_999));
            assert!(!any_of(&policy, &data, |&x| x < 0));
            assert!(all_of(&policy, &data, |&x| x >= 0));
            assert!(!all_of(&policy, &data, |&x| x < 9_999));
            assert!(none_of(&policy, &data, |&x| x > 100_000));
            assert!(!none_of(&policy, &data, |&x| x == 0));
        }
    }

    #[test]
    fn quantifiers_on_empty_input() {
        for policy in policies() {
            let data: Vec<i64> = vec![];
            assert!(!any_of(&policy, &data, |_| true));
            assert!(all_of(&policy, &data, |_| false)); // vacuous truth
            assert!(none_of(&policy, &data, |_| true));
        }
    }

    #[test]
    fn count_matches_std() {
        for policy in policies() {
            let data: Vec<u32> = (0..30_000).map(|i| i % 7).collect();
            assert_eq!(
                count(&policy, &data, &3),
                data.iter().filter(|&&x| x == 3).count()
            );
            assert_eq!(
                count_if(&policy, &data, |&x| x > 4),
                data.iter().filter(|&&x| x > 4).count()
            );
        }
    }

    #[test]
    fn mismatch_and_equal() {
        for policy in policies() {
            let a: Vec<u32> = (0..20_000).collect();
            let mut b = a.clone();
            assert!(equal(&policy, &a, &b));
            assert_eq!(mismatch(&policy, &a, &b), None);
            b[13_000] = 0;
            assert!(!equal(&policy, &a, &b));
            assert_eq!(mismatch(&policy, &a, &b), Some(13_000));
        }
    }

    #[test]
    fn equal_rejects_length_mismatch() {
        let policy = ExecutionPolicy::seq();
        assert!(!equal(&policy, &[1, 2, 3], &[1, 2]));
        let empty: [i32; 0] = [];
        assert!(equal(&policy, &empty, &empty));
    }

    #[test]
    fn equal_by_custom_predicate() {
        for policy in policies() {
            let a: Vec<i32> = (0..5000).collect();
            let b: Vec<i64> = (0..5000).map(|x| x as i64 * 2).collect();
            assert!(equal_by(&policy, &a, &b, |&x, &y| (x as i64) * 2 == y));
        }
    }

    #[test]
    fn lexicographic_ordering() {
        for policy in policies() {
            assert_eq!(
                lexicographical_compare(&policy, b"abc", b"abd"),
                Ordering::Less
            );
            assert_eq!(
                lexicographical_compare(&policy, b"abc", b"ab"),
                Ordering::Greater
            );
            assert_eq!(
                lexicographical_compare(&policy, b"abc", b"abc"),
                Ordering::Equal
            );
            let a: Vec<u32> = (0..50_000).collect();
            let mut b = a.clone();
            b[49_999] = 0;
            assert_eq!(lexicographical_compare(&policy, &a, &b), Ordering::Greater);
        }
    }
}
