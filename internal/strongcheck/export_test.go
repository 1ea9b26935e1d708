package strongcheck

// ReferenceCheckForest exposes the reference search to the external tests.
var ReferenceCheckForest = oldCheckForest
