#ifndef PSC_TESTS_ORACLE_GROUND_MERGE_ORACLE_H_
#define PSC_TESTS_ORACLE_GROUND_MERGE_ORACLE_H_

/// \file
/// Reference ground-merge freeze, linked only by tests.
///
/// The fixpoint straight from the merge-order contract of
/// `FreezeTableauWithGroundMerge` (psc/tableau/tableau.h): rescan the
/// whole tableau for the first non-ground atom that unifies with a ground
/// atom, apply the unifier onto the first such ground atom to every atom,
/// repeat. No indexes, so it shares no bookkeeping with the production
/// fixpoint, and a disagreement between the two points at the indexes.

#include "psc/relational/database.h"
#include "psc/tableau/tableau.h"

namespace psc::oracle {

/// Same contract as `FreezeTableauWithGroundMerge`.
Database FreezeTableauWithGroundMerge(const Tableau& tableau);

}  // namespace psc::oracle

#endif  // PSC_TESTS_ORACLE_GROUND_MERGE_ORACLE_H_
