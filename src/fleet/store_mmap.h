/**
 * @file
 * MmapEnrollmentStore names EnrollmentStore (enrollment_store.h) for
 * code written against a separate mmap-serving store:
 * EnrollmentStore(path) serves a mapped store file itself.
 */

#ifndef CODIC_FLEET_STORE_MMAP_H
#define CODIC_FLEET_STORE_MMAP_H

#include "fleet/enrollment_store.h"

namespace codic {

using MmapEnrollmentStore = EnrollmentStore;

} // namespace codic

#endif // CODIC_FLEET_STORE_MMAP_H
