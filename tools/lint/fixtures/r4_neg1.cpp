// R4 negative: resolved frames and token transfer.
struct Plan {
  int commit_tentative(int t, int q);
  void commit_fitted(int t, int q);
  void rollback(int token);
};

bool try_place(Plan& plan, int t, int q) {
  int token = plan.commit_tentative(t, q);
  plan.rollback(token);
  if (token < 0) return false;
  plan.commit_fitted(t, q);
  return true;
}

int transfer_token(Plan& plan, int t) {
  return plan.commit_tentative(t, 1);  // token transferred to the caller
}
