package lincheck

// ReferenceCheckForest exposes the reference tree search to the external
// tests.
var ReferenceCheckForest = oldCheckForest
